"""Independent oracles used to freeze expected values in the test suite.

Everything here is deliberately self-contained and written with a
different algorithmic style from the package (naive full-pivot Smith
reduction without transform tracking, brute-force enumeration), so test
expectations do not depend on the code under test.
"""

import importlib.util
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_complexes():
    """perfbench/complexes.py, loaded by path: the benchmark's generated
    complexes and its own homology oracle."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_complexes", PERFBENCH / "complexes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_smith_diagonal(rows):
    """Invariant factors (including 1s, excluding 0s) of an integer matrix."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    t = 0
    while t < min(m, n):
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    piv, best = (i, j), abs(a[i][j])
        if piv is None:
            break
        a[t], a[piv[0]] = a[piv[0]], a[t]
        for row in a:
            row[t], row[piv[1]] = row[piv[1]], row[t]
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t] != 0:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j] != 0:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
        t += 1
    diag = [abs(a[i][i]) for i in range(min(m, n)) if a[i][i] != 0]
    # repair divisibility pairwise (gcd/lcm swap converges)
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            x, y = diag[i], diag[i + 1]
            if y % x != 0:
                g = _gcd(x, y)
                diag[i], diag[i + 1] = g, x * y // g
                changed = True
    return diag


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def oracle_rank(rows, ncols):
    """Rank over Q by naive Gaussian elimination."""
    a = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(a)):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][col] != 0:
                f = a[i][col] / a[rank][col]
                a[i] = [x - f * y if y else x for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def close_facets(facets):
    """All faces of the given facets, grouped and sorted by dimension."""
    simps = set()
    for f in facets:
        f = tuple(sorted(f))
        for k in range(1, len(f) + 1):
            simps.update(combinations(f, k))
    by_dim = {}
    for s in simps:
        by_dim.setdefault(len(s) - 1, []).append(s)
    return {k: sorted(v) for k, v in by_dim.items()}


def oracle_boundary(by_dim, k):
    """Boundary matrix rows=(k-1)-simplices, cols=k-simplices, signs (-1)^i."""
    lower = by_dim.get(k - 1, [])
    upper = by_dim.get(k, [])
    index = {s: i for i, s in enumerate(lower)}
    mat = [[0] * len(upper) for _ in lower]
    for j, s in enumerate(upper):
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            mat[index[face]][j] = (-1) ** i
    return mat


def oracle_homology(facets, k):
    """H_k of the complex spanned by `facets`: (rank, sorted torsion > 1)."""
    by_dim = close_facets(facets)
    dim = max(by_dim)
    nk = len(by_dim.get(k, []))
    if nk == 0:
        return (0, [])
    bk = oracle_boundary(by_dim, k) if k >= 1 else [[0] * nk]
    rank_bk = oracle_rank(bk, nk) if k >= 1 else 0
    if k + 1 <= dim:
        bk1 = oracle_boundary(by_dim, k + 1)
        rank_bk1 = oracle_rank(bk1, len(by_dim[k + 1]))
        torsion = [d for d in oracle_smith_diagonal(bk1) if d > 1]
    else:
        rank_bk1 = 0
        torsion = []
    return (nk - rank_bk - rank_bk1, sorted(torsion))


# catalog facet lists (duplicated here on purpose: the oracle must not
# import the package under test)

CIRCLE = [(0, 1), (1, 2), (0, 2)]
SPHERE = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
TORUS = sorted(tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)) + \
        sorted(tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7))
PROJECTIVE_PLANE = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
                    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]
KLEIN_BOTTLE = [(0, 1, 5), (0, 3, 5), (1, 2, 6), (1, 5, 6), (0, 2, 3), (2, 3, 6),
                (3, 5, 7), (3, 4, 7), (5, 6, 8), (5, 7, 8), (3, 4, 6), (4, 6, 8),
                (2, 4, 7), (0, 2, 4), (1, 7, 8), (1, 2, 7), (0, 4, 8), (0, 1, 8)]
POINT = [(0,)]
INTERVAL = [(0, 1)]



def moore(p):
    """Facets of the mod-p Moore space M(Z/p, 1): an inner 3-cycle a_j, an
    outer 3p-cycle b_i winding p times around it through a collar, and a
    cone vertex c over the outer cycle.  Vertices: a_j = j, b_i = 3 + i,
    c = 3 + 3p; H_1 = Z/p, H_2 = 0."""
    n = 3 * p
    b = [3 + i for i in range(n)]
    c = 3 + n
    facets = []
    for i in range(n):
        bi, bn = b[i], b[(i + 1) % n]
        facets += [(bi, bn, i % 3), (bn, i % 3, (i + 1) % 3), (c, bi, bn)]
    return sorted(tuple(sorted(f)) for f in facets)


def suspension(facets, n_vertices):
    """Facets of the suspension: every facet joined with each of two new
    vertices n_vertices and n_vertices + 1."""
    return sorted(tuple(f) + (apex,) for f in facets
                  for apex in (n_vertices, n_vertices + 1))


def staircase_product(facets_a, facets_b, n_b):
    """Facets of the product of two complexes, each ordered by its vertex
    numbers: for facets s of the first and t of the second, one simplex per
    monotone staircase from (s_0, t_0) to (s_p, t_q), each step moving one
    coordinate to its next vertex.  Vertex (a, b) is a * n_b + b, so every
    staircase is already increasing."""
    facets = []
    for s in facets_a:
        for t in facets_b:
            s, t = sorted(s), sorted(t)
            p, q = len(s) - 1, len(t) - 1
            for a_steps in combinations(range(p + q), p):
                i = j = 0
                path = [s[0] * n_b + t[0]]
                for step in range(p + q):
                    if step in a_steps:
                        i += 1
                    else:
                        j += 1
                    path.append(s[i] * n_b + t[j])
                facets.append(tuple(path))
    return sorted(facets)


CATALOG_FACETS = {
    "point": POINT,
    "interval": INTERVAL,
    "circle": CIRCLE,
    "sphere": SPHERE,
    "torus": TORUS,
    "projective-plane": PROJECTIVE_PLANE,
    "klein-bottle": KLEIN_BOTTLE,
}

# complexes with odd torsion and torsion in degree 3, which the catalog
# lacks: name -> (vertex count, facets)
TORSION_FACETS = {
    "moore-3": (13, moore(3)),
    "moore-5": (19, moore(5)),
    "suspended-projective-plane": (8, suspension(PROJECTIVE_PLANE, 6)),
}

# RP^2 x S^1 (18 vertices, H_1 = Z + Z/2, H_2 = Z/2, H_3 = 0): Z/2 in H^2
# and H^3.  Kept apart from TORSION_FACETS, whose checks run every degree.
PRODUCT_FACETS = {
    "projective-plane-times-circle": (18, staircase_product(PROJECTIVE_PLANE,
                                                            CIRCLE, 3)),
}


def oracle_eliminate(rows, ncols, rhs=None):
    """Gauss-Jordan elimination of [rows | rhs] over Q, pivoting on the first
    nonzero entry of each column from the current row down; returns
    (reduced rows, reduced rhs, pivot columns).  This is the elimination
    the package used before it solved every system on a Smith form, kept
    as the reference for the rational solvers."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rhs = [Fraction(x) for x in rhs] if rhs is not None else None
    pivots = []
    pr = 0
    for pc in range(ncols):
        pivot_row = None
        for i in range(pr, len(rows)):
            if rows[i][pc] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        if rhs is not None:
            rhs[pr], rhs[pivot_row] = rhs[pivot_row], rhs[pr]
        inv = 1 / rows[pr][pc]
        rows[pr] = [x * inv for x in rows[pr]]
        if rhs is not None:
            rhs[pr] *= inv
        for i in range(len(rows)):
            if i != pr and rows[i][pc] != 0:
                f = rows[i][pc]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[pr])]
                if rhs is not None:
                    rhs[i] -= f * rhs[pr]
        pivots.append(pc)
        pr += 1
        if pr == len(rows):
            break
    return rows, rhs, pivots


def oracle_solve(rows, ncols, b):
    """Solution of rows * x == b with free variables zero, or None."""
    red, rhs, pivots = oracle_eliminate(rows, ncols, b)
    if any(rhs[i] != 0 for i in range(len(pivots), len(red))):
        return None
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = rhs[i] - sum(red[i][j] * x[j] for j in range(pc + 1, ncols)
                             if red[i][j] != 0)
    return x


def oracle_kernel(rows, ncols):
    """Nullspace basis read off the reduced rows, one vector per free column."""
    red, _, pivots = oracle_eliminate(rows, ncols)
    basis = []
    for fj in range(ncols):
        if fj in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[fj] = Fraction(1)
        for i, pc in enumerate(pivots):
            x[pc] = -red[i][fj]
        basis.append(x)
    return basis


_ORACLE_DENOMS = (1, 2, 3, 4, 6)


def oracle_random_int(rng):
    return rng.randint(-9, 9)


def oracle_random_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.choice(_ORACLE_DENOMS))


def oracle_random_combination(rng, zero, lattice_elems, space_elems):
    """Random element of the group generated by `lattice_elems` over Z and
    `space_elems` over Q, built object by object with `+` and `scale`.
    This is the loop the package used before it summed coordinates in one
    pass, kept as the reference for `sampling.random_combination`; the
    sampling policy (integers in [-9, 9], fractions over {1, 2, 3, 4, 6})
    is restated here."""
    acc = zero
    for g in lattice_elems:
        n = oracle_random_int(rng)
        if n:
            acc = acc + g.scale(n)
    for g in space_elems:
        q = oracle_random_fraction(rng)
        if q:
            acc = acc + g.scale(q)
    return acc


# ---------------------------------------------------------------------------
# the Fraction-per-coordinate vector core, kept as the reference for the
# integer-numerator core.  A value is a list of slots (ring, coordinates),
# ring "Z", "Q" or "QmodZ"; Whitney forms are "Q" slots.  The slots are
# concatenated for the group operations and split and normalised by ring
# afterwards, as the package did before it kept integer rows.

def oracle_normalize(ring, v):
    """One coordinate in its ring: int over Z (ValueError when it is not
    an integer), Fraction over Q, the representative in [0, 1) over Q/Z."""
    if ring == "Z":
        if type(v) is int:
            return v
        f = Fraction(v)
        if f.denominator != 1:
            raise ValueError("non-integer value %r in a Z-cochain" % (v,))
        return int(f)
    f = v if type(v) is Fraction else Fraction(v)
    if ring == "Q":
        return f
    return f - (f.numerator // f.denominator)


def _oracle_flat(slots):
    return [v for _, vals in slots for v in vals]


def _oracle_split(slots, coords):
    out, pos = [], 0
    for ring, vals in slots:
        out.append((ring, tuple(oracle_normalize(ring, v)
                                for v in coords[pos:pos + len(vals)])))
        pos += len(vals)
    return out


def oracle_add(x, y):
    return _oracle_split(x, [a + b for a, b in zip(_oracle_flat(x), _oracle_flat(y))])


def oracle_sub(x, y):
    return _oracle_split(x, [a - b for a, b in zip(_oracle_flat(x), _oracle_flat(y))])


def oracle_neg(x):
    return _oracle_split(x, [-a for a in _oracle_flat(x)])


def oracle_scale(x, s):
    return _oracle_split(x, [s * a for a in _oracle_flat(x)])


def oracle_combine(zero, lattice_coeffs, lattice, space_coeffs, space):
    """zero + sum n_i * lattice_i + sum q_j * space_j, one coordinate at a
    time over Fractions."""
    acc = list(_oracle_flat(zero))
    for coeffs, gens in ((lattice_coeffs, lattice), (space_coeffs, space)):
        for c, g in zip(coeffs, gens):
            if c:
                acc = [a + c * x if x else a for a, x in zip(acc, _oracle_flat(g))]
    return _oracle_split(zero, acc)


def oracle_coboundary_values(lower, upper, values):
    """delta applied to values on the simplices `lower`, read on `upper`:
    the face opposite vertex i carries the sign (-1)^i."""
    index = {s: i for i, s in enumerate(lower)}
    out = []
    for s in upper:
        acc = 0
        for i in range(len(s)):
            v = values[index[s[:i] + s[i + 1:]]]
            if v:
                acc = acc + v if i % 2 == 0 else acc - v
        out.append(acc)
    return out


def oracle_evaluate(ring, values, coeffs):
    """A cochain's value on a chain, as the package computed it over
    Fractions: int over Z, the representative in [0, 1) over Q/Z."""
    total = Fraction(0)
    for v, c in zip(values, coeffs):
        if v and c:
            total += v * c
    if ring == "Z":
        return int(total)
    if ring == "QmodZ":
        return total - (total.numerator // total.denominator)
    return total


def oracle_is_rational_coboundary(complex, k, values):
    """The cycle rule: over Q, the coboundaries of degree k are exactly the
    cochains that vanish on every cycle of a basis of ker boundary_k, the
    basis read off the oracle's own boundary matrix."""
    by_dim = dict(enumerate(complex.simplices))
    rows = oracle_boundary(by_dim, k) if k else []  # every 0-chain is a cycle
    cycles = oracle_kernel(rows, len(values))
    return all(sum(v * c for v, c in zip(values, z)) == 0 for z in cycles)


def oracle_integrate(coeffs, chain_coeffs):
    total = Fraction(0)
    for c, w in zip(chain_coeffs, coeffs):
        if c and w:
            total += c * w
    return total


# ---------------------------------------------------------------------------
# the cone coboundary subgroup, laid out by hand as the package did before
# it decided cone coboundaries through the differential solver; kept as the
# reference for `cone.ConeCoboundarySolver`

def oracle_cone_coboundary_generators(complex, degree):
    """Image of delta_cone landing in cone degree `degree`, in the
    flattened (u, v) coordinates: (ambient dimension, lattice generators
    (-delta e_i, -e_i), space generators (0, delta e_j))."""
    nup = complex.n_simplices(degree + 1)
    ndn = complex.n_simplices(degree)
    nprev = complex.n_simplices(degree - 1)
    delta_dn = complex.coboundary_matrix(degree)
    delta_prev = complex.coboundary_matrix(degree - 1)
    lattice = []
    for i in range(ndn):
        vec = [-v for v in column(delta_dn, i)] + [0] * ndn
        vec[nup + i] = -1
        lattice.append(vec)
    space = [[0] * nup + list(column(delta_prev, j)) for j in range(nprev)]
    return nup + ndn, lattice, space


# ---------------------------------------------------------------------------
# the two subgroups the package laid out by hand before it decided
# differential coboundaries and integer-period splits on the complex's own
# Smith forms; kept as the reference for `hscomplex.CoboundarySolver` and
# `hexagon.OmegaDecomposer`

def oracle_dhat_coboundary_generators(complex, degree):
    """Coboundaries of the level-k complex landing in degree k, curvature
    dropped, in the flattened (c, T) coordinates: (ambient dimension,
    lattice generators (delta e_i, -e_i), space generators (0, -delta e_j))."""
    nk = complex.n_simplices(degree)
    nkm1 = complex.n_simplices(degree - 1)
    nkm2 = complex.n_simplices(degree - 2)
    delta_km1 = complex.coboundary_matrix(degree - 1)
    delta_km2 = complex.coboundary_matrix(degree - 2)
    lattice = []
    for i in range(nkm1):
        vec = list(column(delta_km1, i)) + [0] * nkm1
        vec[nk + i] = -1
        lattice.append(vec)
    space = [[0] * nk + [-v for v in column(delta_km2, j)] for j in range(nkm2)]
    return nk + nkm1, lattice, space


def oracle_integer_period_generators(complex, degree):
    """Integration cochains of the integer-period forms of a degree:
    (ambient dimension, lattice generators the integer cocycle basis,
    space generators the columns of the previous coboundary)."""
    delta_prev = complex.coboundary_matrix(degree - 1)
    lattice = [list(z) for z in complex.cohomology_structure(degree).basis]
    space = [column(delta_prev, j) for j in range(delta_prev.cols)]
    return complex.n_simplices(degree), lattice, space


def oracle_mixed_member(ambient, lattice, space):
    """Decider for membership in the Z-span of `lattice` plus the Q-span of
    `space`: returns a function of a coordinate list x.

    Projects the space part away with a rational kernel basis, then
    compares the projected lattice with the lattice extended by the
    projected x: x is a member exactly when both have the same rank and the
    same product of nonzero invariant factors (the index of one in the
    other is the ratio of the products)."""
    if space:
        phis = oracle_kernel(space, ambient)
    else:
        phis = [[Fraction(int(i == j)) for j in range(ambient)]
                for i in range(ambient)]
    part = [[sum(p * g for p, g in zip(phi, gen)) for gen in lattice]
            for phi in phis]

    def invariants(rows):
        den = 1
        for row in rows:
            for v in row:
                den = den * v.denominator // _gcd(den, v.denominator)
        diag = oracle_smith_diagonal([[int(v * den) for v in row]
                                      for row in rows])
        prod = 1
        for d in diag:
            prod *= d
        # scaling by den multiplies each invariant factor by den
        return len(diag), Fraction(prod, den ** len(diag))

    reference = invariants(part)

    def member(x):
        px = [sum(p * Fraction(y) for p, y in zip(phi, x)) for phi in phis]
        return invariants([row + [v] for row, v in zip(part, px)]) == reference

    return member


# ---------------------------------------------------------------------------
# the image-building cocycle tests, kept as the reference for the row-level
# predicates `hscomplex.is_cocycle` and `ConeCochain.is_cocycle`; they build
# the image with the object-by-object differentials below, not with the
# package's row-level ones, which share their arithmetic with the predicates

def oracle_is_cocycle(x):
    """dhat(x) == 0, by building dhat(x)."""
    return oracle_dhat(x).is_zero()


def oracle_cone_is_cocycle(z):
    """delta_cone(z) == 0, by building delta_cone(z)."""
    return oracle_delta_cone(z).is_zero()


# ---------------------------------------------------------------------------
# the differentials built object by object through the cochain and form
# operations, as the package built them before it computed each slot on
# the integer rows; kept as the reference for `hscomplex.dhat` and
# `cone.delta_cone`

def oracle_dhat(x):
    """(delta c, int(w) - j(c) - delta T, d w), with the curvature slot
    zero at degree level - 1 and absent below it."""
    from hexad.hscomplex import DiffCochain
    from hexad.plforms import WhitneyForm, d, derham_cochain
    cx, q, k = x.complex, x.level, x.degree
    dc = x.integral.coboundary()
    mid = -x.integral.as_q() - x.potential.coboundary()
    if k >= q:
        mid = mid + derham_cochain(x.curvature)
        return DiffCochain(cx, q, k + 1, dc, mid, d(x.curvature))
    if k == q - 1:
        return DiffCochain(cx, q, k + 1, dc, mid, WhitneyForm.zero(cx, k + 1))
    return DiffCochain(cx, q, k + 1, dc, mid, None)


def oracle_delta_cone(z):
    """(-delta u, delta v - j(u))."""
    from hexad.cone import ConeCochain
    return ConeCochain(z.complex, z.degree + 1, -z.integral.coboundary(),
                       z.rational.coboundary() - z.integral.as_q())


# ---------------------------------------------------------------------------
# dense products, the reference of the sparse ones

def column(m, j):
    """Column j of a Matrix, as a list."""
    return [row[j] for row in m.data]


def mat_vec(rows, x):
    """The product of the dense matrix with the given rows and the vector
    x, reading only the nonzero entries of x."""
    if any(len(row) != len(x) for row in rows):
        raise ValueError("vector length does not match matrix width")
    nz = [t for t, xt in enumerate(x) if xt]
    xs = [x[t] for t in nz]
    return [sum(map(mul, map(row.__getitem__, nz), xs)) for row in rows]


def mat_mul(a, b):
    """The Matrix a b, built column by column: column j is a times column j
    of b."""
    from hexad.exactalg import Matrix
    if a.cols != b.rows:
        raise ValueError("matrix shapes do not compose")
    cols = [mat_vec(a.data, column(b, j)) for j in range(b.cols)]
    return Matrix.from_columns(cols, rows=a.rows)


def dense_transforms(f):
    """(u, v, u_inv) of a SmithForm as dense lists of rows, read from the
    `indices` and `values` of its sparse `u_rows`, `v_cols` and
    `u_inv_cols`."""
    r, c = len(f.u_rows.indices), len(f.v_cols.indices)

    def rows(vectors, n):
        out = [[0] * n for _ in vectors.indices]
        for row, idx, vals in zip(out, vectors.indices, vectors.values):
            for i, a in zip(idx, vals):
                row[i] = a
        return out

    u = rows(f.u_rows, r)
    v = [list(col) for col in zip(*rows(f.v_cols, c))] if c else []
    u_inv = [list(col) for col in zip(*rows(f.u_inv_cols, r))] if r else []
    return u, v, u_inv


def _canonical(nums, den):
    g = gcd(den, *nums)
    return tuple(x // g for x in nums), den // g


class DenseSmith:
    """split, solve_q, solve, in_image_q and kernel of a SmithForm by dense
    products with u, v and u_inv, every row and column read; answers are
    lists and (numerators, denominator) pairs in canonical form."""

    def __init__(self, f):
        self.u, self.v, self.u_inv = dense_transforms(f)
        self.diagonal, self.rank = f.diagonal, f.rank

    def _rows(self, b):
        b = [Fraction(x) for x in b]
        if len(b) != len(self.u):
            raise ValueError("right-hand side length does not match")
        bden = 1
        for x in b:
            bden = bden * x.denominator // gcd(bden, x.denominator)
        return mat_vec(self.u, [int(x * bden) for x in b]), bden

    def _preimage(self, w, bden):
        r = self.rank
        top = self.diagonal[r - 1] if r else 1
        y = [wi * (top // di) for wi, di in zip(w, self.diagonal[:r])]
        return _canonical(mat_vec(self.v, y + [0] * (len(self.v) - r)),
                          bden * top)

    def split(self, b):
        w, bden = self._rows(b)
        r = self.rank
        if any(wi % bden for wi in w[r:]):
            return None
        c = mat_vec(self.u_inv, [0] * r + [wi // bden for wi in w[r:]])
        return c, self._preimage(w, bden)

    def solve_q(self, b):
        w, bden = self._rows(b)
        if any(w[self.rank:]):
            return None
        return self._preimage(w, bden)

    def solve(self, b):
        x = self.solve_q(b)
        return None if x is None or x[1] != 1 else list(x[0])

    def in_image_q(self, b):
        return self.solve_q(b) is not None

    def kernel(self):
        return [[row[j] for row in self.v] for j in range(self.rank, len(self.v))]

    def u_times_u_inv_column(self, j):
        """u times column j of u_inv, which is e_j exactly when that column
        is the j-th column of the inverse."""
        return mat_vec(self.u, [row[j] for row in self.u_inv])


def reference_smith_form(m):
    """The Smith decomposition by the reduction `smith_form` replaced: the
    same pivot rule, found by reading every entry of rows and columns t, t+1,
    ... at step t, and every transform kept as dense rows until the end.
    `smith_form` must return an equal SmithForm on every matrix."""
    from hexad.exactalg import SmithForm, SparseVectors, xgcd
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

    diagonal = tuple([a[i][i] for i in range(n)])
    return SmithForm(
        u_rows=SparseVectors.of(u, r),
        diagonal=diagonal,
        v_cols=SparseVectors.of(zip(*v), c),
        u_inv_cols=SparseVectors.of(zip(*uinv), r),
        rank=sum(1 for x in diagonal if x),
    )

# ---------------------------------------------------------------------------
# re-checks of the mixed-membership answers and of unimodularity, by direct
# expansion and evaluation over Fractions

def vec_dot(u, v):
    if len(u) != len(v):
        raise ValueError("dot product of vectors of different lengths")
    acc = Fraction(0)
    for a, b in zip(u, v):
        if a and b:
            acc += a * b
    return acc


def det_bareiss(m):
    """Exact determinant of a square integer matrix (fraction-free)."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def verify_witness(x, subgroup, witness):
    """Re-check a membership witness by direct expansion."""
    n = subgroup.ambient_dim
    acc = [Fraction(0)] * n
    for z, g in zip(witness.lattice_coeffs, subgroup.lattice_gens):
        acc = [a + z * gi for a, gi in zip(acc, g)]
    for q, g in zip(witness.space_coeffs.fractions(), subgroup.space_gens):
        acc = [a + q * gi for a, gi in zip(acc, g)]
    return all(Fraction(xi) == ai for xi, ai in zip(x, acc))


def verify_non_membership(x, subgroup, cert):
    """Re-check a non-membership certificate by direct evaluation."""
    phi = cert.functional
    for g in subgroup.space_gens:
        if vec_dot(phi, g) != 0:
            return False
    for g in subgroup.lattice_gens:
        val = vec_dot(phi, g)
        if cert.modulus == 0:
            if val != 0:
                return False
        else:
            if val.denominator != 1 or val % cert.modulus != 0:
                return False
    val = vec_dot(phi, [Fraction(v) for v in x])
    if cert.modulus == 0:
        return val != 0
    return val.denominator != 1 or val % cert.modulus != 0


# ---------------------------------------------------------------------------
# single-sign mutations of the nine hexagon maps; a test patches
# hexad.hexagon's "map_" + name with the flip after building its context

SIGN_FLIPS = ("I", "R", "der", "a", "ch", "beta", "b", "iota", "i")


def sign_flips():
    """name -> the map with one sign flipped, for each name in SIGN_FLIPS;
    every flip wraps the original map, taken when this is called."""
    from hexad import hexagon
    from hexad.cone import ConeCochain
    from hexad.hscomplex import DiffCochain
    orig = {name: getattr(hexagon, "map_" + name) for name in SIGN_FLIPS}

    def first_slot_flip(fn):
        def flipped(z):
            p = fn(z)
            return -p[0], p[1]
        return flipped

    def a_flip(eta):
        x = orig["a"](eta)
        return DiffCochain(x.complex, x.level, x.degree, x.integral,
                           -x.potential, x.curvature)

    def b_flip(omega):
        z = orig["b"](omega)
        return ConeCochain(z.complex, z.degree, z.integral, -z.rational)

    def i_flip(z):
        x = orig["i"](z)
        return DiffCochain(x.complex, x.level, x.degree, -x.integral,
                           x.potential, x.curvature)

    return {
        "I": first_slot_flip(orig["I"]),
        "R": lambda x: -orig["R"](x),
        "der": lambda w: -orig["der"](w),
        "a": a_flip,
        "ch": lambda c, t: orig["ch"](c, t) - t.scale(2),
        "beta": first_slot_flip(orig["beta"]),
        "b": b_flip,
        "iota": lambda w: -orig["iota"](w),
        "i": i_flip,
    }


# ---------------------------------------------------------------------------
# the standard generator lists the checks and cone routines wrote out slot
# by slot before `Coords.units()` built them through each type's `_like`;
# kept as the reference for `units()`

def _unit_row(n, i):
    from hexad.exactalg import IntRow
    return IntRow([1 if t == i else 0 for t in range(n)], 1)


def hand_chain_units(complex, degree):
    """The old `Chain.basis(complex, degree, i)` over every i."""
    from hexad.simplicial import Chain
    n = complex.n_simplices(degree)
    return [Chain(complex, degree, [1 if t == i else 0 for t in range(n)])
            for i in range(n)]


def hand_cochain_units(complex, degree, ring):
    """The old `Cochain.basis(complex, degree, ring, i)` over every i."""
    from hexad.simplicial import Cochain
    n = complex.n_simplices(degree)
    return [Cochain(complex, degree, ring, _unit_row(n, i)) for i in range(n)]


def hand_whitney_units(complex, degree):
    """The old `WhitneyForm.elementary(complex, degree, i)` over every i."""
    from hexad.plforms import WhitneyForm
    n = complex.n_simplices(degree)
    return [WhitneyForm(complex, degree, _unit_row(n, i)) for i in range(n)]


def hand_cone_units(complex, degree):
    """The generator list of the old `check_cone_square`: (e_i, 0), then
    (0, e_j)."""
    from hexad.cone import ConeCochain
    from hexad.simplicial import Cochain, Ring
    out = [ConeCochain(complex, degree, u,
                       Cochain.zero(complex, degree, Ring.Q))
           for u in hand_cochain_units(complex, degree + 1, Ring.Z)]
    out += [ConeCochain(complex, degree,
                        Cochain.zero(complex, degree + 1, Ring.Z), v)
            for v in hand_cochain_units(complex, degree, Ring.Q)]
    return out


def hand_diff_units(complex, level, degree):
    """The generator list of the old `check_dhat_square`: (e_i, 0, 0), then
    (0, e_j, 0), then, at or above the level, (0, 0, w_l)."""
    from hexad.hscomplex import DiffCochain
    from hexad.plforms import WhitneyForm
    from hexad.simplicial import Cochain, Ring
    k, q = degree, level
    curv = WhitneyForm.zero(complex, k) if k >= q else None
    out = [DiffCochain(complex, q, k, c, Cochain.zero(complex, k - 1, Ring.Q),
                       curv)
           for c in hand_cochain_units(complex, k, Ring.Z)]
    out += [DiffCochain(complex, q, k, Cochain.zero(complex, k, Ring.Z), t,
                        curv)
            for t in hand_cochain_units(complex, k - 1, Ring.Q)]
    if k >= q:
        out += [DiffCochain(complex, q, k, Cochain.zero(complex, k, Ring.Z),
                            Cochain.zero(complex, k - 1, Ring.Q), w)
                for w in hand_whitney_units(complex, k)]
    return out
