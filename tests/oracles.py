"""Independent oracles used to freeze expected values in the test suite.

Everything here is deliberately self-contained and written with a
different algorithmic style from the package (naive full-pivot Smith
reduction without transform tracking, brute-force enumeration), so test
expectations do not depend on the code under test.
"""

from fractions import Fraction
from itertools import combinations


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
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
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


def oracle_eliminate(rows, ncols, rhs=None):
    """Gauss-Jordan elimination of [rows | rhs] over Q, pivoting on the first
    nonzero entry of each column from the current row down; returns
    (reduced rows, reduced rhs, pivot columns).  This is the elimination
    the package used before it kept factorizations, kept as the reference
    for `Factored`."""
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
        vec = [-v for v in delta_dn.column(i)] + [0] * ndn
        vec[nup + i] = -1
        lattice.append(vec)
    space = [[0] * nup + list(delta_prev.column(j)) for j in range(nprev)]
    return nup + ndn, lattice, space


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
