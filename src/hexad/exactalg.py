"""Exact linear algebra over Z and Q.

Every scalar in this package is either an arbitrary-precision integer or a
`fractions.Fraction`.  The real numbers are modelled by Q throughout: all
maps we verify have rational structure constants in the piecewise-linear
model, so each identity holds over R if and only if it holds over Q, and
over Q it can be checked exactly.  `Rational` is an alias for `Fraction`.
A rational vector is kept as an `IntRow`, integer numerators over one
denominator, so vector arithmetic and solves run on integers.

The module provides Smith normal form with unimodular transforms (and
the inverse of the row transform), integer and rational linear solvers,
and decision procedures for subgroups of Q^n that mix a lattice part
(integer spans) with a vector-space part (rational spans).  Membership
answers always come with a witness or a certificate that re-verifies
independently.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
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
        accepts; an IntRow is returned as it is."""
        if type(values) is cls:
            return values
        vals = [v if type(v) is int or type(v) is Fraction else Fraction(v)
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
        """s * self for an int or a Fraction (anything else goes through
        Fraction)."""
        if type(s) is not int and type(s) is not Fraction:
            s = Fraction(s)
        return IntRow([x * s.numerator for x in self.nums],
                      self.den * s.denominator)

    def fractions(self):
        """The coordinates as Fractions."""
        return tuple([Fraction(x, self.den) for x in self.nums])


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
    def zeros(cls, rows, cols):
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_rows(cls, rows, *, cols=None):
        rows = [list(r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("cannot infer width of an empty row list")
            cols = len(rows[0])
        return cls(len(rows), cols, rows)

    @classmethod
    def from_columns(cls, columns, *, rows=None):
        columns = [list(c) for c in columns]
        if rows is None:
            if not columns:
                raise ValueError("cannot infer height of an empty column list")
            rows = len(columns[0])
        data = [[col[i] for col in columns] for i in range(rows)]
        return cls(rows, len(columns), data)

    def row(self, i):
        return list(self.data[i])

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def transpose(self):
        return Matrix(self.cols, self.rows,
                      [[self.data[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("matrix shapes do not compose")
        out = []
        for i in range(self.rows):
            row = self.data[i]
            out.append([sum(row[t] * other.data[t][j] for t in range(self.cols))
                        for j in range(other.cols)])
        return Matrix(self.rows, other.cols, out)

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length does not match matrix width")
        out = []
        for row in self.data:
            acc = 0
            for a, b in zip(row, v):
                if a and b:
                    acc += a * b
            out.append(acc)
        return out

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return "Matrix(%d, %d, %r)" % (self.rows, self.cols, [list(r) for r in self.data])


# ---------------------------------------------------------------------------
# Smith normal form

@dataclass(frozen=True)
class SmithForm:
    """u * m * v == d with u, v unimodular and d diagonal, d_1 | d_2 | ...;
    u_inv is the inverse of u."""

    u: Matrix
    d: Matrix
    v: Matrix
    u_inv: Matrix

    @property
    def rank(self):
        return sum(1 for x in self.diagonal if x != 0)

    @property
    def diagonal(self):
        n = min(self.d.rows, self.d.cols)
        return [self.d.data[i][i] for i in range(n)]

    def solve(self, b):
        """Integer x with m*x == b, or None when there is none.

        With m = u_inv d v^-1 the system splits into one divisibility
        condition per invariant factor.
        """
        if len(b) != self.d.rows:
            raise ValueError("right-hand side length does not match")
        w = self.u.mul_vec(b)
        diag = self.diagonal
        y = [0] * self.d.cols
        for i, wi in enumerate(w):
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if wi != 0:
                    return None
            else:
                if wi % d != 0:
                    return None
                y[i] = wi // d
        return self.v.mul_vec(y)

    def kernel(self):
        """Z-basis of the integer kernel {x : m*x == 0}, as column vectors."""
        n = min(self.d.rows, self.d.cols)
        return [self.v.column(j) for j in range(self.d.cols)
                if j >= n or self.d.data[j][j] == 0]


def smith_form(m):
    """Full Smith decomposition of an integer matrix."""
    r, c = m.rows, m.cols
    a = [list(row) for row in m.data]
    for row in a:
        for x in row:
            if not isinstance(x, int):
                raise ValueError("smith_form requires integer entries")
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    uinv = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def row_swap(i, j):
        if i == j:
            return
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for t in range(r):
            uinv[t][i], uinv[t][j] = uinv[t][j], uinv[t][i]

    def col_swap(i, j):
        if i == j:
            return
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for t in range(r):
            uinv[t][i] = -uinv[t][i]

    def row_add(i, j, q):
        # row_i += q * row_j
        ai, aj = a[i], a[j]
        for t in range(c):
            ai[t] += q * aj[t]
        ui, uj = u[i], u[j]
        for t in range(r):
            ui[t] += q * uj[t]
        for t in range(r):
            uinv[t][j] -= q * uinv[t][i]

    def col_add(i, j, q):
        # col_i += q * col_j
        for row in a:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    def row_gcd(i, j, col):
        # combine rows i and j so a[i][col] = gcd, a[j][col] = 0
        p, q0 = a[i][col], a[j][col]
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
        for rows in (a, u):
            ri, rj = rows[i], rows[j]
            for t in range(len(ri)):
                s, w = ri[t], rj[t]
                ri[t] = x * s + y * w
                rj[t] = pp * w - qq * s
        for t in range(r):
            s, w = uinv[t][i], uinv[t][j]
            uinv[t][i] = pp * s + qq * w
            uinv[t][j] = x * w - y * s

    def col_gcd(i, j, row):
        # combine cols i and j so a[row][i] = gcd, a[row][j] = 0
        p, q0 = a[row][i], a[row][j]
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
        for rows in (a, v):
            for rr in rows:
                s, w = rr[i], rr[j]
                rr[i] = x * s + y * w
                rr[j] = pp * w - qq * s

    n = min(r, c)
    for t in range(n):
        # pick the nonzero entry of smallest magnitude as pivot
        piv = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    piv, best = (i, j), abs(x)
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        while True:
            for i in range(t + 1, r):
                if a[i][t] != 0:
                    row_gcd(t, i, t)
            if all(a[t][j] == 0 for j in range(t + 1, c)):
                break
            for j in range(t + 1, c):
                if a[t][j] != 0:
                    col_gcd(t, j, t)
            if all(a[i][t] == 0 for i in range(t + 1, r)):
                break

    for i in range(n):
        if a[i][i] < 0:
            row_neg(i)

    # enforce the divisibility chain d_1 | d_2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if di == 0 and dj != 0:
                row_swap(i, i + 1)
                col_swap(i, i + 1)
                changed = True
            elif di != 0 and dj % di != 0:
                col_add(i, i + 1, 1)
                row_gcd(i, i + 1, i)
                q = a[i][i + 1] // a[i][i]
                col_add(i + 1, i, -q)
                if a[i][i] < 0:
                    row_neg(i)
                if a[i + 1][i + 1] < 0:
                    row_neg(i + 1)
                changed = True

    return SmithForm(
        u=Matrix(r, r, u),
        d=Matrix(r, c, a),
        v=Matrix(c, c, v),
        u_inv=Matrix(r, r, uinv),
    )


def kernel_basis(m):
    """Z-basis of the integer kernel {x : m*x == 0}, as column vectors.

    One-shot form of smith_form(m).kernel()."""
    return smith_form(m).kernel()


def column_lattice_basis(m):
    """Z-basis of the lattice spanned by the columns of an integer matrix."""
    f = smith_form(m)
    n = min(m.rows, m.cols)
    out = []
    for j in range(n):
        dj = f.d.data[j][j]
        if dj != 0:
            out.append([dj * a for a in f.u_inv.column(j)])
    return out


def hnf_solve(a, b):
    """Solve a*x == b over the integers; returns x or None when unsolvable.

    One-shot form of smith_form(a).solve(b); keep the SmithForm when
    solving many right-hand sides against the same matrix.
    """
    return smith_form(a).solve(b)


# ---------------------------------------------------------------------------
# rational elimination

class Factored:
    """Gauss-Jordan factorization of a matrix over Q, reused across solves.

    One elimination pass over [a | I] yields the pivot columns, the rank,
    and the row transform E with E*a == RREF(a).
    Pivots are taken column by column from the first nonzero entry at or
    below the current row, so the pivot columns are the leftmost
    independent columns of `a`; `solve` sets every free variable to zero,
    which makes each answer the one a fresh elimination of [a | b] gives.
    The elimination is fraction-free: each row is an integer multiple of
    the rational row, a row operation is row_i := p*row_i - f*pivot_row
    followed by division by the row's content, and a pivot row is read
    over its pivot entry at the end.  Each row of E is kept as integer
    numerators over that pivot, so a solve is integer dot products.
    """

    __slots__ = ("matrix", "pivots", "rank", "_transform", "_a_rows")

    def __init__(self, a):
        m, n = a.rows, a.cols
        a_rows = [IntRow.of(row) for row in a.data]
        rows = [list(nums) + [den if j == i else 0 for j in range(m)]
                for i, (nums, den) in enumerate(a_rows)]
        pivots = []
        pr = 0
        for pc in range(n):
            if pr == m:
                break
            pivot_row = next((i for i in range(pr, m) if rows[i][pc]), None)
            if pivot_row is None:
                continue
            rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
            prow = rows[pr]
            p = prow[pc]
            for i in range(m):
                f = rows[i][pc]
                if i != pr and f:
                    row = [p * x - f * y if y else p * x
                           for x, y in zip(rows[i], prow)]
                    g = gcd(*row)
                    rows[i] = [x // g for x in row] if g != 1 else row
            pivots.append(pc)
            pr += 1
        self.matrix = a
        self.pivots = tuple(pivots)
        self.rank = len(pivots)
        # E row i is the transform part of row i over its pivot entry; rows
        # past the rank only test consistency, so any scale will do
        self._transform = ([(row[n:], row[pc]) if row[pc] > 0
                            else ([-x for x in row[n:]], -row[pc])
                            for row, pc in zip(rows, pivots)]
                           + [(row[n:], 1) for row in rows[self.rank:]])
        self._a_rows = a_rows

    def solve(self, b):
        """Exact solution of a*x == b over Q as an IntRow, or None when
        inconsistent.

        `b` is an IntRow or a sequence of rationals.  Free variables are
        zero.  The answer is re-checked against `a`; a failed re-check
        raises ArithmeticError, never reads as "no solution".
        """
        bnum, bden = IntRow.of(b)
        if len(bnum) != self.matrix.rows:
            raise ValueError("right-hand side length does not match")
        rank = self.rank
        for nums, _ in self._transform[rank:]:
            if sum(map(mul, nums, bnum)):
                return None
        # x[pc] = (E_i . bnum) / (den_i * bden), over one common denominator
        common = lcm(*[den for _, den in self._transform[:rank]])
        xden = common * bden
        xnum = [0] * self.matrix.cols
        for pc, (nums, den) in zip(self.pivots, self._transform):
            xnum[pc] = sum(map(mul, nums, bnum)) * (common // den)
        for (nums, den), bi in zip(self._a_rows, bnum):
            if sum(map(mul, nums, xnum)) * bden != bi * den * xden:
                raise ArithmeticError("solution failed to re-verify against the matrix")
        return IntRow(xnum, xden)

    def kernel(self):
        """Basis of the rational nullspace {x : a*x == 0}, as column vectors."""
        # free column fj gives e_fj - y with a*y == column fj (y_fj == 0)
        basis = []
        for fj in range(self.matrix.cols):
            if fj not in self.pivots:
                ynums, yden = self.solve(self.matrix.column(fj))
                basis.append([Fraction((yden if j == fj else 0) - y, yden)
                              for j, y in enumerate(ynums)])
        return basis


def rational_rank(a):
    return Factored(a).rank


def rational_solve(a, b):
    """Exact solution of a*x == b over Q as an IntRow, or None when
    inconsistent.

    One-shot form of Factored(a).solve(b); factor once when solving many
    right-hand sides against the same matrix.
    """
    return Factored(a).solve(b)


def rational_kernel(a):
    """Basis of the rational nullspace {x : a*x == 0}, as column vectors."""
    return Factored(a).kernel()


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
            space_mat = Matrix.from_rows(subgroup.space_gens, cols=n)
            raw = rational_kernel(space_mat)
            # clear denominators so the projected system is integral
            proj = []
            for phi in raw:
                mult = lcm(*(x.denominator for x in phi))
                proj.append([int(x * mult) for x in phi])
            self.proj = proj
            self._identity_proj = False
        else:
            self.proj = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
            self._identity_proj = True
        b = [[sum(map(mul, phi, g)) for g in subgroup.lattice_gens]
             for phi in self.proj]
        self.bmat = Matrix(len(self.proj), len(subgroup.lattice_gens), b)
        self.smith = smith_form(self.bmat)
        self._space = (Factored(Matrix.from_columns(subgroup.space_gens, rows=n))
                       if subgroup.space_gens else None)

    def membership(self, x):
        """Witness or certificate for x, an IntRow or a sequence of
        rationals; the arithmetic runs on x's integer numerators."""
        s = self.subgroup
        xnum, xden = IntRow.of(x)
        if len(xnum) != s.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        if self._identity_proj:
            y = xnum
        else:
            y = [sum(map(mul, phi, xnum)) for phi in self.proj]
        f = self.smith
        w = f.u.mul_vec(y)
        nn = min(self.bmat.rows, self.bmat.cols)
        z = [0] * self.bmat.cols
        for i, wi in enumerate(w):
            # the projected coordinate is wi / xden; it must lie in d*Z
            d = f.d.data[i][i] if i < nn else 0
            if d == 0:
                if wi:
                    return self._certificate(i, 0, Fraction(wi, xden))
            elif wi % (d * xden):
                return self._certificate(i, d, Fraction(wi, xden))
            else:
                z[i] = wi // (d * xden)
        zz = f.v.mul_vec(z)
        residue = list(xnum)
        for coeff, gen in zip(zz, s.lattice_gens):
            if coeff:
                c = coeff * xden
                residue = [r - c * g for r, g in zip(residue, gen)]
        if s.space_gens:
            q = self._space.solve(IntRow(residue, xden))
            if q is None:
                raise ArithmeticError("projection residue left the space span")
        else:
            q = IntRow((), 1)
            if any(residue):
                raise ArithmeticError("nonzero residue with no space part")
        return MixedWitness(tuple(zz), q)

    def _certificate(self, i, modulus, value):
        phi = [0] * self.subgroup.ambient_dim
        for t, row_phi in enumerate(self.proj):
            coeff = self.smith.u.data[i][t]
            if coeff:
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
    basis_fact = Factored(Matrix.from_columns(basis, rows=z_group.ambient_dim))
    coords = []
    for g in b_group.lattice_gens:
        sol = basis_fact.solve(g)
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
