"""Finite abstract simplicial complexes, (co)chains and exact (co)homology.

Simplices are stored as strictly increasing tuples of vertex indices;
boundary signs come from position parity, which fixes all orientation
conventions once and for all.  Every derived structure (boundary matrices,
cocycle bases, homology data) is computed eagerly at construction, so a
complex is immutable afterwards and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from operator import add, mul, sub

from .exactalg import (
    Factored,
    FgAbelianGroup,
    IntRow,
    Matrix,
    smith_form,
)


class Ring(Enum):
    """Coefficient rings for cochains: Z, Q (modelling R), Q/Z (modelling R/Z)."""

    Z = "Z"
    Q = "Q"
    QMODZ = "QmodZ"


def _as_ring(ring):
    if isinstance(ring, Ring):
        return ring
    for r in Ring:
        if r.value == ring:
            return r
    raise ValueError("unknown coefficient ring %r" % (ring,))


class InvalidComplexError(ValueError):
    def __init__(self, violations):
        super().__init__("invalid simplicial complex: " + "; ".join(violations))
        self.violations = list(violations)


class ComplexParseError(ValueError):
    def __init__(self, line, column, message):
        super().__init__("line %d, column %d: %s" % (line, column, message))
        self.line = line
        self.column = column
        self.reason = message


def validate_data(n_vertices, simplices_by_dim):
    """Structural violations of the simplicial-complex invariants.

    Returns a list of human-readable strings, one per violation; an empty
    list means the data is a valid complex.
    """
    violations = []
    present = set()
    for k, simplices in enumerate(simplices_by_dim):
        seen = set()
        last = None
        for s in simplices:
            s = tuple(s)
            if len(s) != k + 1:
                violations.append("simplex %r listed in dimension %d" % (s, k))
                continue
            if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
                violations.append("simplex %r is not strictly increasing" % (s,))
                continue
            if s in seen:
                violations.append("duplicate simplex %r" % (s,))
                continue
            if any(v < 0 or v >= n_vertices for v in s):
                violations.append("simplex %r uses a vertex outside 0..%d"
                                  % (s, n_vertices - 1))
                continue
            if last is not None and s < last:
                violations.append("dimension %d list is not sorted at %r" % (k, s))
            last = s
            seen.add(s)
            present.add(s)
    for k, simplices in enumerate(simplices_by_dim):
        if k == 0:
            continue
        for s in simplices:
            s = tuple(s)
            if len(s) != k + 1:
                continue
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                if face not in present:
                    violations.append("missing face %r of %r" % (face, s))
    return violations


class SimplicialComplex:
    """Immutable finite abstract simplicial complex with cached matrices,
    one rational factorization per coboundary degree and one Smith form
    per boundary and coboundary matrix."""

    __slots__ = ("name", "n_vertices", "simplices", "_sizes", "_index",
                 "_bound", "_cob_sparse", "_cob_factored", "_cob_smith",
                 "_bd_smith", "_cohom", "_homol")

    def __init__(self, name, n_vertices, simplices_by_dim):
        self.name = str(name)
        self.n_vertices = int(n_vertices)
        simps = []
        for k, lst in enumerate(simplices_by_dim):
            simps.append(tuple(tuple(int(v) for v in s) for s in sorted(lst)))
        while simps and not simps[-1]:
            simps.pop()
        self.simplices = tuple(simps)
        self._sizes = {k: len(lst) for k, lst in enumerate(self.simplices)}
        self._index = tuple({s: i for i, s in enumerate(lst)} for lst in self.simplices)
        self._bound = {}
        self._cob_sparse = {}
        self._cob_factored = {}
        self._cob_smith = {}
        self._bd_smith = {}
        self._cohom = {}
        self._homol = {}
        violations = validate_data(self.n_vertices, self.simplices)
        if violations:
            raise InvalidComplexError(violations)
        # boundary matrices for 1..dim; everything else has a zero shape
        for k in range(1, self.dim + 1):
            self._bound[k] = self._build_boundary(k)
            self._cob_sparse[k - 1] = self._build_cob_sparse(k - 1)
        for k in range(-1, self.dim + 1):
            cob = self.coboundary_matrix(k)
            self._cob_factored[k] = Factored(cob)
            self._cob_smith[k] = smith_form(cob)
            self._bd_smith[k + 1] = smith_form(self.boundary(k + 1))
        for k in range(0, self.dim + 1):
            self._cohom[k] = _cohomology_structure(self, k)
            self._homol[k] = _homology_structure(self, k)

    @classmethod
    def from_facets(cls, name, n_vertices, facets):
        """Build the complex generated by the given maximal simplices."""
        simps = set()
        for f in facets:
            f = tuple(sorted(set(int(v) for v in f)))
            if not f:
                raise ValueError("empty facet")
            for k in range(1, len(f) + 1):
                simps.update(combinations(f, k))
        if not simps:
            raise ValueError("complex has no simplices")
        max_dim = max(len(s) for s in simps) - 1
        by_dim = [[] for _ in range(max_dim + 1)]
        for s in simps:
            by_dim[len(s) - 1].append(s)
        return cls(name, n_vertices, by_dim)

    @property
    def dim(self):
        return len(self.simplices) - 1

    def simplices_of(self, k):
        if 0 <= k <= self.dim:
            return self.simplices[k]
        return ()

    def n_simplices(self, k):
        return self._sizes.get(k, 0)

    def index_of(self, k, simplex):
        try:
            return self._index[k][tuple(simplex)]
        except (IndexError, KeyError):
            raise KeyError("no %d-simplex %r in %s" % (k, tuple(simplex), self.name))

    def _build_boundary(self, k):
        lower = self.simplices_of(k - 1)
        upper = self.simplices_of(k)
        index = self._index[k - 1]
        data = [[0] * len(upper) for _ in lower]
        for j, s in enumerate(upper):
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                data[index[face]][j] = -1 if i % 2 else 1
        return Matrix(len(lower), len(upper), data)

    def _build_cob_sparse(self, k):
        # face structure of delta^k: entry i lists, for every (k+1)-simplex,
        # the index of the face opposite its vertex i (sign (-1)^i)
        index = self._index[k] if 0 <= k <= self.dim else {}
        upper = self.simplices_of(k + 1)
        return tuple(tuple(index[s[:i] + s[i + 1:]] for s in upper)
                     for i in range(k + 2))

    def boundary(self, k):
        """Boundary operator C_k -> C_{k-1} for any k (zero shape off-range)."""
        if k in self._bound:
            return self._bound[k]
        return Matrix.zeros(self.n_simplices(k - 1), self.n_simplices(k))

    def coboundary_matrix(self, k):
        """Coboundary operator C^k -> C^{k+1}: transpose of boundary(k+1)."""
        return self.boundary(k + 1).transpose()

    def coboundary_factored(self, k):
        """Factored(coboundary_matrix(k)), built once per degree with the
        complex; the solver for every delta y == target over Q."""
        if k in self._cob_factored:
            return self._cob_factored[k]
        return Factored(self.coboundary_matrix(k))

    def coboundary_smith(self, k):
        """smith_form(coboundary_matrix(k)), built once per degree with the
        complex; cocycle lattices and integral primitives are read from it."""
        if k in self._cob_smith:
            return self._cob_smith[k]
        return smith_form(self.coboundary_matrix(k))

    def boundary_smith(self, k):
        """smith_form(boundary(k)), built once per degree with the complex."""
        if k in self._bd_smith:
            return self._bd_smith[k]
        return smith_form(self.boundary(k))

    def coboundary_values(self, k, nums):
        """Apply delta^k to a vector of integers (the numerators of a
        cochain; its denominator is unchanged).

        Semantically identical to coboundary_matrix(k).mul_vec(nums); the
        signs are read from the precomputed sparse face lists.
        """
        faces = self._cob_sparse.get(k)
        if faces is None:
            return [0] * self.n_simplices(k + 1)
        get = nums.__getitem__
        acc = map(get, faces[0])
        for i in range(1, len(faces)):
            acc = map(sub if i % 2 else add, acc, map(get, faces[i]))
        return list(acc)

    def cohomology_structure(self, k):
        if not (0 <= k <= self.dim):
            return _cohomology_structure(self, k)
        return self._cohom[k]

    def homology_structure(self, k):
        if not (0 <= k <= self.dim):
            return _homology_structure(self, k)
        return self._homol[k]

    def __repr__(self):
        counts = ",".join(str(self.n_simplices(k)) for k in range(self.dim + 1))
        return "SimplicialComplex(%s: %s)" % (self.name, counts)


def validate(complex):
    """Structural violations of a complex; an empty list means it is valid."""
    return validate_data(complex.n_vertices, complex.simplices)


# ---------------------------------------------------------------------------
# chains and cochains

class Coords:
    """Shared vector core of cochain-like values.

    A value is an `IntRow` (integer numerators over one denominator) plus
    a key (complex, degree, ring, level, ...) that must match for two
    values to be combined.  Each type supplies `_key()`, `_row()` and
    `_like(row)`, which rebuilds a value of the same type through its
    validating constructor; the group operations below act on the integer
    rows and are defined only here.
    """

    __slots__ = ()

    def is_zero(self):
        return not any(self._row().nums)

    def __add__(self, other):
        self._compat(other)
        return self._like(IntRow.combination(self._row(), ((1, other._row()),)))

    def __sub__(self, other):
        self._compat(other)
        return self._like(IntRow.combination(self._row(), ((-1, other._row()),)))

    def __neg__(self):
        return self._like(self._row().scaled(-1))

    def scale(self, s):
        return self._like(self._row().scaled(s))

    def _compat(self, other):
        if type(other) is not type(self) or other._key() != self._key():
            raise ValueError("%s values are not compatible" % type(self).__name__)

    def __eq__(self, other):
        return (type(other) is type(self) and other._key() == self._key()
                and other._row() == self._row())


def combine(zero, lattice_coeffs, lattice, space_coeffs, space):
    """zero + sum n_i * lattice_i + sum q_j * space_j, summed in one pass
    over the integer rows and built once through zero's constructor."""
    terms = []
    for coeffs, gens in ((lattice_coeffs, lattice), (space_coeffs, space)):
        for c, g in zip(coeffs, gens):
            if c:
                zero._compat(g)
                terms.append((c, g._row()))
    return zero._like(IntRow.combination(zero._row(), terms))


class Chain(Coords):
    """Integer k-chain, indexed by the k-simplices of its complex."""

    __slots__ = ("complex", "degree", "row")

    def __init__(self, complex, degree, coeffs):
        row = IntRow.of(coeffs)
        if row.den != 1:
            raise ValueError("non-integer coefficient %r in a chain"
                             % (_first_fraction(row),))
        if len(row.nums) != complex.n_simplices(degree):
            raise ValueError("chain has %d coefficients, expected %d"
                             % (len(row.nums), complex.n_simplices(degree)))
        self.complex = complex
        self.degree = degree
        self.row = row

    @property
    def coeffs(self):
        return self.row.nums

    def _key(self):
        return (self.complex, self.degree)

    def _row(self):
        return self.row

    def _like(self, row):
        return Chain(self.complex, self.degree, row)

    @classmethod
    def basis(cls, complex, degree, i):
        coeffs = [0] * complex.n_simplices(degree)
        coeffs[i] = 1
        return cls(complex, degree, coeffs)

    def boundary(self):
        mat = self.complex.boundary(self.degree)
        return Chain(self.complex, self.degree - 1, mat.mul_vec(self.coeffs))

    def is_cycle(self):
        return all(c == 0 for c in self.boundary().coeffs)

    def __repr__(self):
        return "Chain(deg=%d, %r)" % (self.degree, list(self.coeffs))


def _first_fraction(row):
    """The first coordinate of the row that is not an integer."""
    return next(Fraction(x, row.den) for x in row.nums if x % row.den)


class Cochain(Coords):
    """Degree-k cochain over Z, Q or Q/Z.

    The values are one `IntRow`.  Over Z its denominator is 1; Q/Z values
    are kept as the unique rational representative in [0, 1) (numerators
    reduced mod the denominator), so equality of cochains is equality of
    the underlying functions.
    """

    __slots__ = ("complex", "degree", "ring", "row")

    def __init__(self, complex, degree, ring, values):
        if type(ring) is not Ring:
            ring = _as_ring(ring)
        row = IntRow.of(values)
        if ring is Ring.Z:
            if row.den != 1:
                raise ValueError("non-integer value %r in a Z-cochain"
                                 % (_first_fraction(row),))
        elif ring is Ring.QMODZ:
            row = IntRow([x % row.den for x in row.nums], row.den)
        if len(row.nums) != complex.n_simplices(degree):
            raise ValueError("cochain has %d values, expected %d"
                             % (len(row.nums), complex.n_simplices(degree)))
        self.complex = complex
        self.degree = degree
        self.ring = ring
        self.row = row

    @property
    def values(self):
        """The values: ints over Z, Fractions over Q and Q/Z."""
        if self.ring is Ring.Z:
            return self.row.nums
        return self.row.fractions()

    def _key(self):
        return (self.complex, self.degree, self.ring)

    def _row(self):
        return self.row

    def _like(self, row):
        return Cochain(self.complex, self.degree, self.ring, row)

    @classmethod
    def zero(cls, complex, degree, ring):
        return cls(complex, degree, ring,
                   IntRow((0,) * complex.n_simplices(degree), 1))

    @classmethod
    def basis(cls, complex, degree, ring, i):
        nums = [0] * complex.n_simplices(degree)
        nums[i] = 1
        return cls(complex, degree, ring, IntRow(nums, 1))

    def coboundary(self):
        """(delta x)(sigma) = x(boundary sigma); ring tag preserved."""
        nums = self.complex.coboundary_values(self.degree, self.row.nums)
        return Cochain(self.complex, self.degree + 1, self.ring,
                       IntRow(nums, self.row.den))

    def evaluate(self, chain):
        if chain.degree != self.degree:
            raise ValueError("cochain degree %d evaluated on %d-chain"
                             % (self.degree, chain.degree))
        total = sum(map(mul, self.row.nums, chain.coeffs))
        if self.ring is Ring.Z:
            return total
        if self.ring is Ring.QMODZ:
            return Fraction(total % self.row.den, self.row.den)
        return Fraction(total, self.row.den)

    def as_q(self):
        """Coefficient inclusion into Q (the identity on Q-cochains)."""
        if self.ring is Ring.QMODZ:
            raise ValueError("no canonical lift of a Q/Z-cochain to Q")
        return Cochain(self.complex, self.degree, Ring.Q, self.row)

    def mod1(self):
        """Reduction mod Z: Q -> Q/Z."""
        if self.ring is Ring.QMODZ:
            return self
        return Cochain(self.complex, self.degree, Ring.QMODZ, self.row)

    def is_cocycle(self):
        return self.coboundary().is_zero()

    def __repr__(self):
        return "Cochain(%s, deg=%d, %s)" % (
            self.ring.value, self.degree, [str(v) for v in self.values])


# ---------------------------------------------------------------------------
# cohomology and homology with constructive witnesses

@dataclass(frozen=True)
class TorsionClass:
    """Cocycle `gen` of finite order: order * gen = coboundary of `primitive`."""

    order: int
    gen: tuple
    primitive: tuple


@dataclass(frozen=True)
class CohomologyStructure:
    """Constructive presentation of H^k(X; Z).

    cocycle_basis     Z-basis of the integer cocycle lattice
    coboundary_gens   columns of the previous coboundary matrix
    free_gens         cocycles projecting to a basis of the free part
    torsion_gens      torsion classes with explicit primitives
    group             the abstract group
    q_rank            dim H^k(X; Q)
    """

    degree: int
    cocycle_basis: tuple
    coboundary_gens: tuple
    free_gens: tuple
    torsion_gens: tuple
    group: FgAbelianGroup
    q_rank: int


@dataclass(frozen=True)
class TorsionCycle:
    """Cycle of finite order: order * cycle = boundary of `bounding_chain`."""

    order: int
    cycle: tuple
    bounding_chain: tuple


@dataclass(frozen=True)
class HomologyStructure:
    degree: int
    cycle_basis: tuple
    boundary_gens: tuple
    free_cycles: tuple
    torsion_cycles: tuple
    group: FgAbelianGroup


def _quotient_presentation(kernel_vecs, image_cols, image_smith):
    """Shared kernel-mod-image bookkeeping.

    kernel_vecs: Z-basis of the kernel lattice (list of int vectors)
    image_cols: generators of the image sublattice (each a kernel member)
    image_smith: Smith form of the matrix op whose integer solutions
        certify `order * gen = op(x)`

    Returns (free_gens, torsion_list, group) where torsion_list has entries
    (order, gen_vector, solver_witness).
    """
    z = len(kernel_vecs)
    if z == 0:
        return (), (), FgAbelianGroup(0)
    ambient = len(kernel_vecs[0])
    kernel_mat = Matrix.from_columns(kernel_vecs, rows=ambient)
    # with the standard basis as kernel basis (top-degree cohomology, H_0)
    # the relations matrix is the image matrix itself, already reduced
    standard = kernel_mat == Matrix.identity(ambient)
    if standard:
        coords = image_cols
    else:
        kernel_fact = Factored(kernel_mat)
        coords = []
        for col in image_cols:
            sol = kernel_fact.solve(col)
            if sol is None or sol.den != 1:
                raise ArithmeticError("image generator is not in the kernel lattice")
            coords.append(list(sol.nums))
    if coords:
        f = image_smith if standard else smith_form(Matrix.from_columns(coords, rows=z))
        diag = f.diagonal
        new_basis = [f.u_inv.column(i) for i in range(z)]
    else:
        diag = []
        new_basis = [[1 if t == i else 0 for t in range(z)] for i in range(z)]
    gens = []
    for vec in new_basis:
        g = [0] * ambient
        for coeff, kb in zip(vec, kernel_vecs):
            if coeff:
                g = [a + coeff * b for a, b in zip(g, kb)]
        gens.append(tuple(g))
    rank_img = sum(1 for d in diag if d != 0)
    free_gens = tuple(gens[i] for i in range(rank_img, z))
    torsion = []
    for i, d in enumerate(diag):
        if d >= 2:
            wit = image_smith.solve([d * x for x in gens[i]])
            if wit is None:
                raise ArithmeticError("torsion witness system has no solution")
            torsion.append((d, gens[i], tuple(wit)))
    group = FgAbelianGroup(z - rank_img, tuple(d for d, _, _ in torsion))
    return free_gens, tuple(torsion), group


def _cohomology_structure(complex, k):
    delta_prev = complex.coboundary_matrix(k - 1)
    nk = complex.n_simplices(k)
    if nk == 0:
        return CohomologyStructure(k, (), (), (), (), FgAbelianGroup(0), 0)
    cocycles = [tuple(v) for v in complex.coboundary_smith(k).kernel()]
    coboundaries = [tuple(delta_prev.column(j)) for j in range(delta_prev.cols)]
    free_gens, torsion, group = _quotient_presentation(
        [list(v) for v in cocycles], [list(c) for c in coboundaries],
        complex.coboundary_smith(k - 1))
    torsion_gens = tuple(TorsionClass(d, tuple(g), w) for d, g, w in torsion)
    q_rank = ((nk - complex.coboundary_factored(k).rank)
              - complex.coboundary_factored(k - 1).rank)
    return CohomologyStructure(k, tuple(cocycles), tuple(coboundaries),
                               free_gens, torsion_gens, group, q_rank)


def _homology_structure(complex, k):
    bd_next = complex.boundary(k + 1)
    nk = complex.n_simplices(k)
    if nk == 0:
        return HomologyStructure(k, (), (), (), (), FgAbelianGroup(0))
    cycles = [tuple(v) for v in complex.boundary_smith(k).kernel()]
    boundaries = [tuple(bd_next.column(j)) for j in range(bd_next.cols)]
    free_cycles, torsion, group = _quotient_presentation(
        [list(v) for v in cycles], [list(c) for c in boundaries],
        complex.boundary_smith(k + 1))
    torsion_cycles = tuple(TorsionCycle(d, tuple(g), w) for d, g, w in torsion)
    return HomologyStructure(k, tuple(cycles), tuple(boundaries),
                             free_cycles, torsion_cycles, group)


def cohomology(complex, k, ring):
    """H^k with the requested coefficients.

    Z      -> FgAbelianGroup
    Q      -> integer rank
    Q/Z    -> (divisible_rank, finite FgAbelianGroup)
    """
    ring = _as_ring(ring)
    if not (0 <= k <= complex.dim):
        raise ValueError("degree %d out of range 0..%d" % (k, complex.dim))
    if ring is Ring.Q:
        return complex.cohomology_structure(k).q_rank
    if ring is Ring.Z:
        return complex.cohomology_structure(k).group
    # Q/Z: Hom(H_k, Q/Z) = (Q/Z)^rank H_k + torsion(H_k), read off the matrices
    hst = complex.homology_structure(k)
    return (hst.group.rank, FgAbelianGroup(0, hst.group.torsion_factors))


# ---------------------------------------------------------------------------
# text formats

def _tokenize(line):
    """Split a line into (token, 1-based column) pairs, dropping comments."""
    if "#" in line:
        line = line[:line.index("#")]
    out = []
    col = 0
    while col < len(line):
        if line[col].isspace():
            col += 1
            continue
        start = col
        while col < len(line) and not line[col].isspace():
            col += 1
        out.append((line[start:col], start + 1))
    return out


def _parse_int(tok, lineno, col, what):
    try:
        return int(tok)
    except ValueError:
        raise ComplexParseError(lineno, col, "expected %s, got %r" % (what, tok))


# Bound on the faces a complex file may ask the face closure to enumerate,
# summed as 2^|f| - 1 over its facets: about 1,000 times the ~1,000
# simplices of the largest complexes the checks are meant for.
MAX_FACE_ENUMERATION = 1 << 20


def load_complex(text):
    """Parse the complex file format.

    Lines: `name <identifier>`, `vertices <n>`, `facet v0 v1 ...`,
    with `#` comments.  Facets are closed under faces automatically; a
    file whose facets would enumerate more than MAX_FACE_ENUMERATION faces
    is rejected at the facet that passes the bound.
    """
    name = None
    n_vertices = None
    facets = []
    enumerated = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize(raw)
        if not toks:
            continue
        key, kcol = toks[0]
        if key == "name":
            if len(toks) != 2:
                raise ComplexParseError(lineno, kcol, "name takes one identifier")
            name = toks[1][0]
        elif key == "vertices":
            if len(toks) != 2:
                raise ComplexParseError(lineno, kcol, "vertices takes one count")
            n_vertices = _parse_int(toks[1][0], lineno, toks[1][1], "a vertex count")
            if n_vertices <= 0:
                raise ComplexParseError(lineno, toks[1][1],
                                        "vertex count must be positive")
        elif key == "facet":
            if n_vertices is None:
                raise ComplexParseError(lineno, kcol,
                                        "facet before the vertices line")
            if len(toks) < 2:
                raise ComplexParseError(lineno, kcol, "facet needs vertex indices")
            parsed = [(_parse_int(tok, lineno, col, "a vertex index"), col)
                      for tok, col in toks[1:]]
            verts = [v for v, _ in parsed]
            for v, col in parsed:
                if v < 0 or v >= n_vertices:
                    raise ComplexParseError(
                        lineno, col,
                        "facet %s uses vertex %d outside 0..%d"
                        % (tuple(verts), v, n_vertices - 1))
            if len(set(verts)) != len(verts):
                raise ComplexParseError(lineno, kcol,
                                        "facet repeats a vertex: %r" % (verts,))
            enumerated += (1 << len(verts)) - 1
            if enumerated > MAX_FACE_ENUMERATION:
                raise ComplexParseError(
                    lineno, kcol,
                    "facets so far enumerate %d faces, over the limit of %d"
                    % (enumerated, MAX_FACE_ENUMERATION))
            facets.append(tuple(sorted(verts)))
        else:
            raise ComplexParseError(lineno, kcol, "unknown directive %r" % key)
    if name is None:
        raise ComplexParseError(1, 1, "missing name line")
    if n_vertices is None:
        raise ComplexParseError(1, 1, "missing vertices line")
    if not facets:
        raise ComplexParseError(1, 1, "no facets given")
    return SimplicialComplex.from_facets(name, n_vertices, facets)


def _parse_fraction(tok, lineno, col):
    try:
        if "/" in tok:
            num, den = tok.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(tok))
    except (ValueError, ZeroDivisionError):
        raise ComplexParseError(lineno, col, "expected p or p/q, got %r" % tok)


def parse_cochain_lines(lines, complex, *, expect_ring=None, start_line=1):
    """Parse `degree`, `ring`, `value` lines into a Cochain."""
    degree = None
    ring = None
    values = {}
    for lineno, raw in lines:
        toks = _tokenize(raw)
        if not toks:
            continue
        key, kcol = toks[0]
        if key == "degree":
            degree = _parse_int(toks[1][0], lineno, toks[1][1], "a degree")
        elif key == "ring":
            try:
                ring = _as_ring(toks[1][0])
            except ValueError:
                raise ComplexParseError(lineno, toks[1][1],
                                        "unknown ring %r" % toks[1][0])
        elif key == "value":
            if degree is None:
                raise ComplexParseError(lineno, kcol, "value before degree line")
            if len(toks) != 3:
                raise ComplexParseError(lineno, kcol,
                                        "value takes a simplex and a scalar")
            stext, scol = toks[1]
            try:
                simplex = tuple(int(p) for p in stext.split(","))
            except ValueError:
                raise ComplexParseError(lineno, scol,
                                        "bad simplex tuple %r" % stext)
            try:
                idx = complex.index_of(degree, simplex)
            except KeyError:
                raise ComplexParseError(lineno, scol,
                                        "no %d-simplex %r" % (degree, simplex))
            values[idx] = _parse_fraction(toks[2][0], lineno, toks[2][1])
        else:
            raise ComplexParseError(lineno, kcol, "unknown directive %r" % key)
    if degree is None or ring is None:
        raise ComplexParseError(start_line, 1, "cochain needs degree and ring lines")
    if expect_ring is not None and ring is not _as_ring(expect_ring):
        raise ComplexParseError(start_line, 1,
                                "expected ring %s" % _as_ring(expect_ring).value)
    vals = [values.get(i, 0) for i in range(complex.n_simplices(degree))]
    return Cochain(complex, degree, ring, vals)


def load_cochain(text, complex):
    return parse_cochain_lines(list(enumerate(text.splitlines(), start=1)), complex)


def format_cochain(cochain):
    lines = ["degree %d" % cochain.degree, "ring %s" % cochain.ring.value]
    for s, v in zip(cochain.complex.simplices_of(cochain.degree), cochain.values):
        if v != 0:
            lines.append("value %s %s" % (",".join(str(x) for x in s), v))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# catalog

_TORUS_FACETS = tuple(sorted(
    tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)
) + sorted(
    tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7)
))

_CATALOG = {
    "point": (1, ((0,),),
              {0: (1, ())}),
    "interval": (2, ((0, 1),),
                 {0: (1, ()), 1: (0, ())}),
    "circle": (3, ((0, 1), (1, 2), (0, 2)),
               {0: (1, ()), 1: (1, ())}),
    "sphere": (4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
               {0: (1, ()), 1: (0, ()), 2: (1, ())}),
    "torus": (7, _TORUS_FACETS,
              {0: (1, ()), 1: (2, ()), 2: (1, ())}),
    "projective-plane": (6, ((0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4),
                             (0, 3, 5), (1, 2, 3), (1, 2, 5), (1, 3, 4),
                             (2, 4, 5), (3, 4, 5)),
                         {0: (1, ()), 1: (0, (2,)), 2: (0, ())}),
    "klein-bottle": (9, ((0, 1, 5), (0, 3, 5), (1, 2, 6), (1, 5, 6), (0, 2, 3),
                         (2, 3, 6), (3, 5, 7), (3, 4, 7), (5, 6, 8), (5, 7, 8),
                         (3, 4, 6), (4, 6, 8), (2, 4, 7), (0, 2, 4), (1, 7, 8),
                         (1, 2, 7), (0, 4, 8), (0, 1, 8)),
                     {0: (1, ()), 1: (1, (2,)), 2: (0, ())}),
}


def catalog_names():
    return sorted(_CATALOG)


def expected_homology(name):
    """The catalog's stored homology (rank, torsion factors) per degree."""
    if name not in _CATALOG:
        raise KeyError("unknown catalog complex %r; known: %s"
                       % (name, ", ".join(catalog_names())))
    return dict(_CATALOG[name][2])


_catalog_cache = {}


def catalog(name):
    """Build a catalog complex and verify its homology against the stored
    expected values before returning it.

    Instances are cached: complexes are immutable, and reusing one instance
    lets cochains built at different call sites interoperate.
    """
    if name in _catalog_cache:
        return _catalog_cache[name]
    if name not in _CATALOG:
        raise KeyError("unknown catalog complex %r; known: %s"
                       % (name, ", ".join(catalog_names())))
    n_vertices, facets, expected = _CATALOG[name]
    cx = SimplicialComplex.from_facets(name, n_vertices, facets)
    for k, (rank, torsion) in expected.items():
        got = cx.homology_structure(k).group
        if got != FgAbelianGroup(rank, torsion):
            raise ArithmeticError(
                "catalog %s: H_%d computed as %s, expected %s"
                % (name, k, got, FgAbelianGroup(rank, torsion)))
    _catalog_cache[name] = cx
    return cx
