"""Exact linear algebra over Z and Q.

Every scalar in this package is either an arbitrary-precision integer or a
`fractions.Fraction`.  The real numbers are modelled by Q throughout: all
maps we verify have rational structure constants in the piecewise-linear
model, so each identity holds over R if and only if it holds over Q, and
over Q it can be checked exactly.  `Rational` is an alias for `Fraction`.
A rational vector is kept as an `IntRow`, integer numerators over one
denominator, so vector arithmetic and solves run on integers.

The module provides Smith normal form with unimodular transforms (and
the inverse of the row transform, all kept sparse), integer and rational
linear solvers, and decision procedures for subgroups of Q^n that mix a
lattice part (integer spans) with a vector-space part (rational spans).
Membership answers always come with a witness or a certificate that
re-verifies independently.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import add, mul

Rational = Fraction


# ---------------------------------------------------------------------------
# rational vectors as integer rows

class IntRow(namedtuple("IntRow", "nums den")):
    """The rational vector nums / den: `nums` a tuple of ints, `den` >= 1.

    The constructor puts the pair in canonical form, gcd(den, *nums) == 1
    (so the zero vector has den 1), which makes equality of vectors
    equality of tuples.
    """

    __slots__ = ()

    def __new__(cls, nums, den):
        nums = tuple(nums)
        if den < 1:
            raise ValueError("IntRow denominator must be positive")
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple([x // g for x in nums])
            den //= g
        return tuple.__new__(cls, (nums, den))

    @classmethod
    def of(cls, values):
        """The IntRow of a sequence of ints, Fractions or anything Fraction
        accepts but floats; an IntRow is returned as it is."""
        if type(values) is cls:
            return values
        vals = [v if type(v) is int or type(v) is Fraction else _exact(v)
                for v in values]
        den = lcm(*[v.denominator for v in vals])
        return cls([v.numerator * (den // v.denominator) for v in vals], den)

    @classmethod
    def combination(cls, start, terms):
        """start + sum c * row over the (c, row) pairs, c an int or a
        Fraction; summed over a running common denominator and put in
        canonical form once."""
        nums, den = list(start.nums), start.den
        for c, (rnums, rden) in terms:
            if not c:
                continue
            tden = c.denominator * rden
            new = lcm(den, tden)
            if new != den:
                nums = list(map((new // den).__mul__, nums))
                den = new
            f = c.numerator * (den // tden)
            nums = list(map(add, nums, map(f.__mul__, rnums)))
        return cls(nums, den)

    @classmethod
    def join(cls, rows):
        """The concatenation of several rows, over their common denominator."""
        den = lcm(*[r.den for r in rows])
        nums = []
        for r in rows:
            nums.extend(map((den // r.den).__mul__, r.nums))
        return cls(nums, den)

    def scaled(self, s):
        """s * self for an int or a Fraction (anything else but a float
        goes through Fraction)."""
        if type(s) is not int and type(s) is not Fraction:
            s = _exact(s)
        return IntRow([x * s.numerator for x in self.nums],
                      self.den * s.denominator)

    def fractions(self):
        """The coordinates as Fractions."""
        return tuple([Fraction(x, self.den) for x in self.nums])


def _exact(v):
    """Fraction(v) for anything but a float, whose binary value is not the
    decimal it was written as (0.1 is 3602879701896397/2**55)."""
    if isinstance(v, float):
        raise TypeError("float %r in exact arithmetic; pass an int, a "
                        "Fraction or a string such as '1/10'" % (v,))
    return Fraction(v)


def xgcd(a, b):
    """Return (g, x, y) with x*a + y*b == g == gcd(a, b) >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


class Matrix:
    """Dense matrix with an explicit shape, so 0 x n and m x 0 stay distinct.

    Entries are ints or Fractions; the normal-form routines require ints.
    Instances are immutable (data is a tuple of row tuples).
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        data = tuple(tuple(row) for row in data)
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValueError("matrix data does not match shape %dx%d" % (rows, cols))
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, rows, *, cols):
        return cls(len(rows), cols, rows)

    @classmethod
    def from_columns(cls, columns, *, rows):
        if any(len(col) != rows for col in columns):
            raise ValueError("matrix column does not have %d entries" % rows)
        return cls(rows, len(columns),
                   [[col[i] for col in columns] for i in range(rows)])

    def transpose(self):
        return Matrix(self.cols, self.rows,
                      [[self.data[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return "Matrix(%d, %d, %r)" % (self.rows, self.cols, [list(r) for r in self.data])


# ---------------------------------------------------------------------------
# Smith normal form

class SparseVectors(namedtuple("SparseVectors", "indices values")):
    """Integer vectors kept by their nonzero entries: vector j has the
    values values[j] at the indices indices[j], in index order.

    Each is a list, not a tuple: CPython keeps up to 2,000 freed tuples of
    each length below 21, so the short tuples of a dropped transform would
    go on holding memory."""

    __slots__ = ()

    def entries(self, j):
        """The (index, value) pairs of vector j's nonzero entries."""
        return zip(self.indices[j], self.values[j])

    def dense(self, j, n):
        """Vector j as a dense list of n ints."""
        out = [0] * n
        for i, a in self.entries(j):
            out[i] = a
        return out

    def times(self, nums, lo, hi):
        """The products of vectors lo, ..., hi - 1, read as rows, with the
        dense vector nums, yielded one row at a time."""
        for idx, vals in zip(self.indices[lo:hi], self.values[lo:hi]):
            acc = 0
            for i, a in zip(idx, vals):
                acc += a * nums[i]
            yield acc

    def combine(self, coeffs, lo, n):
        """sum coeffs[t] * vector lo + t, vectors of length n, as a dense
        list; the vectors past the end of coeffs are not read."""
        indices, values = self
        out = [0] * n
        for j, c in enumerate(coeffs, lo):
            if c:
                for i, a in zip(indices[j], values[j]):
                    out[i] += a * c
        return out


@dataclass(frozen=True)
class SmithForm:
    """u * m * v == diag(d_1, d_2, ...), r x c, u and v unimodular, d_1 | d_2
    | ... with the `rank` nonzero d_i first; u_inv is the inverse of u.

    The transforms are kept as SparseVectors, each in the orientation its
    products read: `u_rows` are the rows of u, `v_cols` and `u_inv_cols`
    the columns of v and u_inv."""

    u_rows: SparseVectors
    diagonal: tuple
    v_cols: SparseVectors
    u_inv_cols: SparseVectors
    rank: int

    def solve(self, b):
        """Integer x with m*x == b as a list, or None: `solve_q(b)` when it
        is integral, which, with its free coordinates 0 and v unimodular,
        is exactly when some integer solution exists."""
        x = self.solve_q(b)
        if x is None or x.den != 1:
            return None
        return list(x.nums)

    def split(self, b):
        """(c, x) with b == c + m*x, c a list of ints and x an IntRow, or
        None when b is not in Z^n + m*Q^k.

        Rows r, r+1, ... of u (r the rank) vanish on m*Q^k, since
        u*m == d*v^-1, and u is unimodular; so with w = u*b the split
        exists exactly when w_i is an integer for every i >= r.  Then
        c = u_inv*(0, ..., 0, w_r, ...) and x = v*y with y_i = w_i / d_i.
        Rows r, r+1, ... of u are read first, and only columns r, r+1, ...
        of u_inv.
        """
        bnum, bden = self._numerators(b)
        r, n = self.rank, len(bnum)
        high = list(self.u_rows.times(bnum, r, n))
        if any(wi % bden for wi in high):
            return None
        c = self.u_inv_cols.combine([wi // bden for wi in high], r, n)
        return c, self._preimage(bnum, bden)

    def solve_q(self, b):
        """Rational x with m*x == b as an IntRow, or None: the split of b
        with c == 0, which exists exactly when w_i == 0 for every i >= r."""
        bnum, bden = self._numerators(b)
        if any(self.u_rows.times(bnum, self.rank, len(bnum))):
            return None
        return self._preimage(bnum, bden)

    def in_image_q(self, b):
        """Whether m*x == b has a rational solution, that is, whether
        `solve_q(b)` is not None: rows r, r+1, ... of u vanish on b's
        numerators.  Only those rows are read, and no x is built."""
        bnum = self._numerators(b)[0]
        return not any(self.u_rows.times(bnum, self.rank, len(bnum)))

    def _numerators(self, b):
        bnum, bden = IntRow.of(b)
        if len(bnum) != len(self.u_rows.indices):
            raise ValueError("right-hand side length does not match")
        return bnum, bden

    def _preimage(self, bnum, bden):
        # v*y / bden with y_i = w_i / d_i for w = u*bnum and i < r, over
        # d_{r-1}, a multiple of every nonzero d_i: rows and columns below r
        r = self.rank
        top = self.diagonal[r - 1] if r else 1
        y = [wi * (top // di) for wi, di
             in zip(self.u_rows.times(bnum, 0, r), self.diagonal)]
        return IntRow(self.v_cols.combine(y, 0, len(self.v_cols.indices)),
                      bden * top)

    def kernel(self):
        """Z-basis of the integer kernel {x : m*x == 0}, as column vectors:
        columns r, r+1, ... of v, r the rank."""
        n = len(self.v_cols.indices)
        return [self.v_cols.dense(j, n) for j in range(self.rank, n)]


def _add_to(dst, src, q):
    # dst += q * src over src's nonzero entries; an entry that cancels is
    # dropped
    if not q:
        return
    for k, y in src.items():
        x = dst.get(k, 0) + q * y
        if x:
            dst[k] = x
        else:
            del dst[k]


def _mix(vi, vj, x, y, p, q):
    # (x * vi + y * vj, p * vj - q * vi) over the union of their keys, with
    # no zero entry kept
    ni, nj = {}, {}
    for k, s in vi.items():
        w = vj.get(k, 0)
        e = x * s + y * w
        if e:
            ni[k] = e
        e = p * w - q * s
        if e:
            nj[k] = e
    for k, w in vj.items():
        if k not in vi:
            e = y * w
            if e:
                ni[k] = e
            e = p * w
            if e:
                nj[k] = e
    return ni, nj


def _sparse(vectors):
    # SparseVectors of dicts of nonzero entries, each in index order
    indices, values = [], []
    for d in vectors:
        idx = sorted(d)
        indices.append(idx)
        values.append(list(map(d.__getitem__, idx)))
    return SparseVectors(tuple(indices), tuple(values))


def smith_form(m):
    """Full Smith decomposition of an integer matrix.

    The pivot of step t is the first entry of least magnitude, in row-major
    order, over rows and columns t, t+1, ...; the scan stops at the first
    unit, which no later entry can replace.  The reduction reads nonzero
    entries only: the matrix and u are kept as one dict per row, u_inv and
    v as one dict per column, and an entry that cancels is dropped.  The
    matrix also keeps, per column, the set of rows that hold an entry in
    it, so a column operation visits those rows only."""
    r, c = m.rows, m.cols
    a = []
    cols = [set() for _ in range(c)]
    ks = range(c)
    for i, row in enumerate(m.data):
        if not {int}.issuperset(map(type, row)):
            for x in row:
                if not isinstance(x, int):
                    raise ValueError("smith_form requires integer entries")
        a.append(dict(zip(compress(ks, row), filter(None, row))))
        for j in a[i]:
            cols[j].add(i)
    u = [{i: 1} for i in range(r)]
    uinv = [{i: 1} for i in range(r)]
    v = [{j: 1} for j in range(c)]

    def set_rows(i, j, ni, nj):
        # a[i], a[j] = ni, nj, with the column sets following
        ai, aj = a[i], a[j]
        for k in ai.keys() - ni.keys():
            cols[k].discard(i)
        for k in ni.keys() - ai.keys():
            cols[k].add(i)
        for k in aj.keys() - nj.keys():
            cols[k].discard(j)
        for k in nj.keys() - aj.keys():
            cols[k].add(j)
        a[i], a[j] = ni, nj

    def row_swap(i, j):
        if i == j:
            return
        set_rows(i, j, a[j], a[i])
        u[i], u[j] = u[j], u[i]
        uinv[i], uinv[j] = uinv[j], uinv[i]

    def col_swap(i, j):
        if i == j:
            return
        for k in cols[i] | cols[j]:
            row = a[k]
            s = row.pop(i, 0)
            w = row.pop(j, 0)
            if s:
                row[j] = s
            if w:
                row[i] = w
        cols[i], cols[j] = cols[j], cols[i]
        v[i], v[j] = v[j], v[i]

    def row_neg(i):
        for vectors in (a, u, uinv):
            vectors[i] = {k: -x for k, x in vectors[i].items()}

    def row_add(i, j, q):
        # row_i += q * row_j, so column j of u_inv -= q * column i
        ai = a[i]
        for k, y in a[j].items():
            x = ai.get(k)
            if x is None:
                ai[k] = q * y
                cols[k].add(i)
            elif x + q * y:
                ai[k] = x + q * y
            else:
                del ai[k]
                cols[k].discard(i)
        _add_to(u[i], u[j], q)
        _add_to(uinv[j], uinv[i], -q)

    def col_add(i, j, q):
        # col_i += q * col_j
        if not q:
            return
        col_i = cols[i]
        for k in cols[j]:
            row = a[k]
            x = row.get(i)
            if x is None:
                row[i] = q * row[j]
                col_i.add(k)
            elif x + q * row[j]:
                row[i] = x + q * row[j]
            else:
                del row[i]
                col_i.discard(k)
        _add_to(v[i], v[j], q)

    def row_gcd(i, j, col):
        # combine rows i and j so a[i][col] = gcd, a[j][col] = 0
        p, q0 = a[i].get(col, 0), a[j].get(col, 0)
        if q0 == 0:
            return
        if p == 0:
            row_swap(i, j)
            return
        if q0 % p == 0:
            # plain subtraction keeps the pivot row intact (avoids the
            # xgcd branch swapping it with a dirty row and cycling)
            row_add(j, i, -(q0 // p))
            return
        g, x, y = xgcd(p, q0)
        pp, qq = p // g, q0 // g
        set_rows(i, j, *_mix(a[i], a[j], x, y, pp, qq))
        u[i], u[j] = _mix(u[i], u[j], x, y, pp, qq)
        uinv[i], uinv[j] = _mix(uinv[i], uinv[j], pp, qq, x, y)

    def col_gcd(i, j, row):
        # combine cols i and j so a[row][i] = gcd, a[row][j] = 0
        p, q0 = a[row].get(i, 0), a[row].get(j, 0)
        if q0 == 0:
            return
        if p == 0:
            col_swap(i, j)
            return
        if q0 % p == 0:
            col_add(j, i, -(q0 // p))
            return
        g, x, y = xgcd(p, q0)
        pp, qq = p // g, q0 // g
        col_i, col_j = cols[i], cols[j]
        for k in col_i | col_j:
            rr = a[k]
            s, w = rr.get(i, 0), rr.get(j, 0)
            e = x * s + y * w
            if e:
                rr[i] = e
                col_i.add(k)
            elif s:
                del rr[i]
                col_i.discard(k)
            e = pp * w - qq * s
            if e:
                rr[j] = e
                col_j.add(k)
            elif w:
                del rr[j]
                col_j.discard(k)
        v[i], v[j] = _mix(v[i], v[j], x, y, pp, qq)

    n = min(r, c)
    for t in range(n):
        # the first nonzero entry of smallest magnitude is the pivot; rows
        # t, t+1, ... hold no entry left of column t
        piv = None
        best = None
        for i in range(t, r):
            row = a[i]
            if not row:
                continue
            low = min(map(abs, row.values()))
            if best is None or low < best:
                best = low
                piv = (i, min([j for j, x in row.items()
                               if x == low or x == -low]))
                if low == 1:
                    break
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        # row_gcd(t, i, t) moves rows t and i only, and col_gcd(t, j, t)
        # columns t and j only, so a pass may list the rows that hold an
        # entry in column t, and the columns that hold one in row t, before
        # it clears them; a[t][t] stays nonzero, so a row or column of one
        # entry holds the pivot alone
        while True:
            for i in sorted(cols[t]):
                if i > t:
                    row_gcd(t, i, t)
            if len(a[t]) == 1:
                break
            for j in sorted(a[t]):
                if j > t:
                    col_gcd(t, j, t)
            if len(cols[t]) == 1:
                break

    for i in range(n):
        if a[i].get(i, 0) < 0:
            row_neg(i)

    # enforce the divisibility chain d_1 | d_2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            di, dj = a[i].get(i, 0), a[i + 1].get(i + 1, 0)
            if di == 0 and dj != 0:
                row_swap(i, i + 1)
                col_swap(i, i + 1)
                changed = True
            elif di != 0 and dj % di != 0:
                col_add(i, i + 1, 1)
                row_gcd(i, i + 1, i)
                q = a[i].get(i + 1, 0) // a[i][i]
                col_add(i + 1, i, -q)
                if a[i][i] < 0:
                    row_neg(i)
                if a[i + 1].get(i + 1, 0) < 0:
                    row_neg(i + 1)
                changed = True

    diagonal = tuple([a[i].get(i, 0) for i in range(n)])
    return SmithForm(
        u_rows=_sparse(u),
        diagonal=diagonal,
        v_cols=_sparse(v),
        u_inv_cols=_sparse(uinv),
        rank=sum(1 for x in diagonal if x),
    )


# One-shot wrappers: no CLI path runs them; perfbench/tracer.py TARGETS names them.
def kernel_basis(m):
    """Z-basis of the integer kernel {x : m*x == 0}, as column vectors.

    One-shot form of smith_form(m).kernel()."""
    return smith_form(m).kernel()


def column_lattice_basis(m):
    """Z-basis of the lattice spanned by the columns of an integer matrix."""
    f = smith_form(m)
    return [[dj * a for a in f.u_inv_cols.dense(j, m.rows)]
            for j, dj in enumerate(f.diagonal[:f.rank])]


def hnf_solve(a, b):
    """Solve a*x == b over the integers; returns x or None when unsolvable.

    One-shot form of smith_form(a).solve(b); keep the SmithForm when
    solving many right-hand sides against the same matrix.
    """
    return smith_form(a).solve(b)


# ---------------------------------------------------------------------------
# rational systems on the Smith form of the cleared matrix

def _cleared(a):
    """(smith_form(m), m, dens): m is a with each row times the lcm of its
    denominators, and dens are those multipliers, so a*x == b exactly when
    m*x == dens*b, row by row."""
    rows = [IntRow.of(row) for row in a.data]
    m = Matrix(a.rows, a.cols, [nums for nums, _ in rows])
    return smith_form(m), m, [den for _, den in rows]


def _solve_cleared(cleared, b):
    """x with a*x == b over Q as an IntRow, or None, for cleared =
    _cleared(a) and b of length a.rows.  The answer is re-checked against
    the cleared matrix; a failed re-check raises ArithmeticError, never
    reads as "no solution"."""
    f, m, dens = cleared
    bnum, bden = IntRow.of(b)
    x = f.solve_q(IntRow(map(mul, bnum, dens), bden))
    if x is not None:
        for row, bi, den in zip(m.data, bnum, dens):
            if sum(map(mul, row, x.nums)) * bden != bi * den * x.den:
                raise ArithmeticError("solution failed to re-verify against the matrix")
    return x


# One-shot wrappers: no CLI path runs them; perfbench/tracer.py TARGETS names them.
def rational_rank(a):
    return _cleared(a)[0].rank


def rational_solve(a, b):
    """Exact solution of a*x == b over Q as an IntRow, or None when
    inconsistent; re-checked, as `_solve_cleared` says."""
    b = IntRow.of(b)
    if len(b.nums) != a.rows:
        raise ValueError("right-hand side length does not match")
    return _solve_cleared(_cleared(a), b)


def rational_kernel(a):
    """Basis of the rational nullspace {x : a*x == 0}, as integer column
    vectors."""
    return _cleared(a)[0].kernel()


# ---------------------------------------------------------------------------
# finitely generated abelian groups

@dataclass(frozen=True)
class FgAbelianGroup:
    """Z^rank plus cyclic factors Z/d_1 + ... with d_1 | d_2 | ..., d_i >= 2."""

    rank: int
    torsion_factors: tuple = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        object.__setattr__(self, "torsion_factors", tuple(self.torsion_factors))
        prev = None
        for d in self.torsion_factors:
            if d < 2:
                raise ValueError("torsion factor %r is not >= 2" % (d,))
            if prev is not None and d % prev != 0:
                raise ValueError("torsion factors do not form a divisibility chain")
            prev = d

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append("Z^%d" % self.rank)
        parts.extend("Z/%d" % d for d in self.torsion_factors)
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# mixed subgroups of Q^n

@dataclass(frozen=True)
class MixedSubgroup:
    """Subgroup of Q^n of the form  Z-span(lattice_gens) + Q-span(space_gens)."""

    ambient_dim: int
    lattice_gens: tuple = ()
    space_gens: tuple = ()

    def __post_init__(self):
        lat = []
        for g in self.lattice_gens:
            g = [int(x) for x in g]
            if len(g) != self.ambient_dim:
                raise ValueError("lattice generator of wrong length")
            lat.append(tuple(g))
        sp = []
        for g in self.space_gens:
            g = [Fraction(x) for x in g]
            if len(g) != self.ambient_dim:
                raise ValueError("space generator of wrong length")
            sp.append(tuple(g))
        object.__setattr__(self, "lattice_gens", tuple(lat))
        object.__setattr__(self, "space_gens", tuple(sp))


@dataclass(frozen=True)
class MixedWitness:
    """x == sum z_i * lattice_gens_i + sum q_j * space_gens_j, exactly:
    `lattice_coeffs` a tuple of ints, `space_coeffs` the IntRow of the q_j."""

    lattice_coeffs: tuple
    space_coeffs: tuple


@dataclass(frozen=True)
class NonMembership:
    """Certificate that x is not in the subgroup.

    `functional` is an integer functional phi with phi(space gen) == 0 for
    every space generator and phi(lattice gen) in modulus*Z for every
    lattice generator; `value` = phi(x) is not in modulus*Z.  A modulus of
    zero means phi vanishes identically on the subgroup while phi(x) != 0.
    """

    functional: tuple
    modulus: int
    value: Fraction


class MixedSolver:
    """Reusable decision procedure for one MixedSubgroup.

    Builds the projection that kills the space part and the Smith form of
    the projected lattice once, then answers membership queries cheaply.
    """

    def __init__(self, subgroup):
        self.subgroup = subgroup
        n = subgroup.ambient_dim
        if subgroup.space_gens:
            # integer functionals that kill the space part, and the space
            # part's own system for the residue
            self.proj = rational_kernel(Matrix.from_rows(subgroup.space_gens,
                                                         cols=n))
            self._space = _cleared(Matrix.from_columns(subgroup.space_gens,
                                                       rows=n))
        else:
            self.proj = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        b = [[sum(map(mul, phi, g)) for g in subgroup.lattice_gens]
             for phi in self.proj]
        self.bmat = Matrix(len(self.proj), len(subgroup.lattice_gens), b)
        self.smith = smith_form(self.bmat)

    def membership(self, x):
        """Witness or certificate for x, an IntRow or a sequence of
        rationals; the arithmetic runs on x's integer numerators."""
        s = self.subgroup
        xnum, xden = IntRow.of(x)
        if len(xnum) != s.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        if not s.space_gens:
            y = xnum
        else:
            y = [sum(map(mul, phi, xnum)) for phi in self.proj]
        f = self.smith
        w = list(f.u_rows.times(y, 0, len(f.u_rows.indices)))
        nn = len(f.diagonal)
        z = [0] * self.bmat.cols
        for i, wi in enumerate(w):
            # the projected coordinate is wi / xden; it must lie in d*Z
            d = f.diagonal[i] if i < nn else 0
            if d == 0:
                if wi:
                    return self._certificate(i, 0, Fraction(wi, xden))
            elif wi % (d * xden):
                return self._certificate(i, d, Fraction(wi, xden))
            else:
                z[i] = wi // (d * xden)
        zz = f.v_cols.combine(z, 0, len(z))
        residue = list(xnum)
        for coeff, gen in zip(zz, s.lattice_gens):
            if coeff:
                c = coeff * xden
                residue = [r - c * g for r, g in zip(residue, gen)]
        if s.space_gens:
            q = _solve_cleared(self._space, IntRow(residue, xden))
            if q is None:
                raise ArithmeticError("projection residue left the space span")
        else:
            q = IntRow((), 1)
            if any(residue):
                raise ArithmeticError("nonzero residue with no space part")
        return MixedWitness(tuple(zz), q)

    def _certificate(self, i, modulus, value):
        phi = [0] * self.subgroup.ambient_dim
        for t, coeff in self.smith.u_rows.entries(i):
            row_phi = self.proj[t]
            for j in range(len(phi)):
                phi[j] += coeff * row_phi[j]
        return NonMembership(tuple(phi), modulus, Fraction(value))


def quotient_group(z_group, b_group):
    """Invariant factors of Z/B for two pure lattices B <= Z inside Q^n."""
    if z_group.space_gens or b_group.space_gens:
        raise ValueError("quotient_group requires pure lattice subgroups")
    if z_group.ambient_dim != b_group.ambient_dim:
        raise ValueError("ambient dimensions differ")
    solver = MixedSolver(z_group)
    for g in b_group.lattice_gens:
        res = solver.membership(list(g))
        if isinstance(res, NonMembership):
            raise ValueError("denominator subgroup is not contained in the numerator")
    if not z_group.lattice_gens:
        return FgAbelianGroup(0)
    basis = column_lattice_basis(
        Matrix.from_columns(z_group.lattice_gens, rows=z_group.ambient_dim))
    if not basis:
        return FgAbelianGroup(0)
    basis_system = _cleared(Matrix.from_columns(basis, rows=z_group.ambient_dim))
    coords = []
    for g in b_group.lattice_gens:
        sol = _solve_cleared(basis_system, g)
        if sol is None or sol.den != 1:
            raise ArithmeticError("lattice member without integral coordinates")
        coords.append(list(sol.nums))
    if not coords:
        return FgAbelianGroup(len(basis))
    rel = Matrix.from_columns(coords, rows=len(basis))
    f = smith_form(rel)
    diag = [d for d in f.diagonal if d != 0]
    return FgAbelianGroup(len(basis) - len(diag),
                          tuple(d for d in diag if d >= 2))
