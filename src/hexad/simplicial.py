"""Finite abstract simplicial complexes, (co)chains and exact (co)homology.

Simplices are stored as strictly increasing tuples of vertex indices;
boundary signs come from position parity, which fixes all orientation
conventions once and for all.  The boundary operator is stored once, as
one face table per degree that serves both d and delta; dense matrices are
built from it on demand.  Every derived structure (face tables, the Smith
forms of the coboundary matrices, cohomology and homology presentations)
is computed eagerly at construction, so a complex is immutable afterwards
and safe to share between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import combinations
from operator import add, mul, sub

from .exactalg import (
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


# Bound on the simplices of one dimension: the Smith reduction works on dense
# n x n lists for n simplices (only the transforms it keeps are sparse), so
# 1,000 one-vertex facets load in 0.36-0.55 s at 44 MB peak RSS and a
# 1,000-edge cycle in 1.6-1.7 s at 105 MB (Python 3.11, 2 shared CPUs; with
# dense kept transforms the same loads peaked at 90 and 145 MB).  T_13, the
# largest grid torus measured for scaling, has 507 edges.
MAX_SIMPLICES_PER_DIMENSION = 1000


class SimplicialComplex:
    """Immutable finite abstract simplicial complex.  The boundary operator
    is stored once, as one face table per degree; dense matrices are built
    from it on demand, and one Smith form is kept per coboundary matrix."""

    __slots__ = ("name", "n_vertices", "simplices", "_sizes", "_index",
                 "_faces", "_cob_smith", "_cohom", "_homol")

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
        violations = ["dimension %d has %d simplices, over the limit of %d"
                      % (k, n, MAX_SIMPLICES_PER_DIMENSION) for k, n
                      in self._sizes.items() if n > MAX_SIMPLICES_PER_DIMENSION]
        violations += validate_data(self.n_vertices, self.simplices)
        if violations:
            raise InvalidComplexError(violations)
        # _faces[k], k = 0..dim-1, serves delta^k and d_{k+1}: one row per
        # (k+1)-simplex, whose entry i is the index of the face opposite its
        # vertex i (sign (-1)^i); every other degree has a zero operator
        self._faces = {k: tuple(tuple(self._index[k][s[:i] + s[i + 1:]]
                                      for i in range(k + 2))
                                for s in self.simplices[k + 1])
                       for k in range(self.dim)}
        # the Smith forms of d serve the homology presentations only
        delta = {k: self.coboundary_matrix(k) for k in range(-1, self.dim + 1)}
        cob = self._cob_smith = {k: smith_form(m) for k, m in delta.items()}
        bd = {k + 1: smith_form(m.transpose()) for k, m in delta.items()}
        self._cohom = {k: _presentation(k, cob[k], delta[k - 1].transpose().data,
                                        cob[k - 1]) for k in range(self.dim + 1)}
        self._homol = {k: _presentation(k, bd[k], delta[k].data, bd[k + 1])
                       for k in range(self.dim + 1)}

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
        i = self._index[k].get(tuple(simplex)) if 0 <= k <= self.dim else None
        if i is None:
            raise KeyError("no %d-simplex %r in %s" % (k, tuple(simplex), self.name))
        return i

    def coboundary_matrix(self, k):
        """delta^k: C^k -> C^{k+1} as a dense matrix, built from the face
        table (zero shape off-range)."""
        data = [[0] * self.n_simplices(k) for _ in range(self.n_simplices(k + 1))]
        for row, faces in zip(data, self._faces.get(k, ())):
            for i, f in enumerate(faces):
                row[f] = -1 if i % 2 else 1
        return Matrix(self.n_simplices(k + 1), self.n_simplices(k), data)

    def coboundary_smith(self, k):
        """smith_form(coboundary_matrix(k)), built once per degree with the
        complex; cocycle lattices, ranks and every solve against delta^k."""
        return self._cob_smith.get(k) or smith_form(self.coboundary_matrix(k))

    def coboundary_values(self, k, nums):
        """Apply delta^k to a vector of integers (the numerators of a
        cochain; its denominator is unchanged).

        The product of coboundary_matrix(k) with nums, with the signs
        read from the face table in one pass over its rows.
        """
        faces = self._faces.get(k)
        if faces is None:
            return [0] * self.n_simplices(k + 1)
        # edges and triangles are spelled out; for f > 3 faces per simplex
        # the values at the faces are gathered in row order, so face i of
        # every row is the slice vals[i::f]
        x = nums
        if k == 0:
            return [x[a] - x[b] for a, b in faces]
        if k == 1:
            return [x[a] - x[b] + x[c] for a, b, c in faces]
        f = k + 2
        vals = [x[i] for row in faces for i in row]
        acc = vals[0::f]
        for i in range(1, f):
            acc = map(sub if i % 2 else add, acc, vals[i::f])
        return list(acc)

    def boundary_values(self, k, nums):
        """Apply d_{k+1} to a vector of integers: the transpose of
        coboundary_values(k), read from the same face table."""
        out = [0] * self.n_simplices(k)
        for faces, x in zip(self._faces.get(k, ()), nums):
            if x:
                for i, f in enumerate(faces):
                    out[f] += -x if i % 2 else x
        return out

    def cohomology_structure(self, k):
        """The Presentation of H^k(X; Z); empty off 0..dim."""
        return self._cohom.get(k) or _empty_presentation(k)

    def homology_structure(self, k):
        """The Presentation of H_k(X; Z); empty off 0..dim."""
        return self._homol.get(k) or _empty_presentation(k)

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
    values to be combined.  A single-row type keeps its `row` and supplies
    `_key()` and `_like(row)`, a rebuild through its validating constructor;
    a composite supplies `_key()` and `_slots()`, its slot values in row
    order, and is rebuilt as `type(self)(*key, *slots)`.  Joining and
    splitting slot rows, the group operations and the pairing with chains
    are defined only here.
    """

    __slots__ = ()

    @property
    def row(self):  # a composite's slot rows over one denominator, kept
        row = self._joined
        if row is None:
            row = self._joined = IntRow.join([s.row for s in self._slots()])
        return row

    def _like(self, row):
        # a composite: the row is split into slots in one pass, and kept
        nums, den = row
        slots, end = [], 0
        for s in self._slots():
            start, end = end, end + len(s.row.nums)
            slots.append(s._like(IntRow(nums[start:end], den)))
        x = type(self)(*self._key(), *slots)
        x._joined = row
        return x

    def is_zero(self):
        return not any(self.row.nums)

    def __add__(self, other):
        self._compat(other)
        return self._like(IntRow.combination(self.row, ((1, other.row),)))

    def __sub__(self, other):
        self._compat(other)
        return self._like(IntRow.combination(self.row, ((-1, other.row),)))

    def __neg__(self):
        return self._like(self.row.scaled(-1))

    def scale(self, s):
        return self._like(self.row.scaled(s))

    def units(self):
        """The standard generators of this value's group, in `row` order:
        coordinate i is 1 in the i-th value and 0 elsewhere."""
        n = len(self.row.nums)
        return [self._like(IntRow((0,) * i + (1,) + (0,) * (n - 1 - i), 1))
                for i in range(n)]

    def pair_nums(self, chain):
        """row.nums . chain.coeffs for a Chain of the same complex and
        degree: the pairing with the chain, times row.den."""
        if not isinstance(chain, Chain):
            raise TypeError("a %s pairs with a Chain" % type(self).__name__)
        if chain.complex is not self.complex:
            raise ValueError("pairing with a chain on another complex")
        if chain.degree != self.degree:
            raise ValueError("degree-%d value paired with a %d-chain"
                             % (self.degree, chain.degree))
        return sum(map(mul, self.row.nums, chain.coeffs))

    def _compat(self, other):
        if type(other) is not type(self) or other._key() != self._key():
            raise ValueError("%s values are not compatible" % type(self).__name__)

    def __eq__(self, other):
        return (type(other) is type(self) and other._key() == self._key()
                and other.row == self.row)


def combine(zero, lattice_coeffs, lattice, space_coeffs, space):
    """zero + sum n_i * lattice_i + sum q_j * space_j, summed in one pass
    over the integer rows and built once through zero's constructor."""
    terms = []
    for coeffs, gens in ((lattice_coeffs, lattice), (space_coeffs, space)):
        for c, g in zip(coeffs, gens):
            if c:
                zero._compat(g)
                terms.append((c, g.row))
    return zero._like(IntRow.combination(zero.row, terms))


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

    def _like(self, row):
        return Chain(self.complex, self.degree, row)

    def boundary(self):
        return Chain(self.complex, self.degree - 1,
                     self.complex.boundary_values(self.degree - 1, self.coeffs))

    def is_cycle(self):
        return not any(self.complex.boundary_values(self.degree - 1, self.coeffs))

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
            ring = Ring(ring)
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

    def _like(self, row):
        return Cochain(self.complex, self.degree, self.ring, row)

    @classmethod
    def zero(cls, complex, degree, ring):
        return cls(complex, degree, ring,
                   IntRow((0,) * complex.n_simplices(degree), 1))

    def coboundary(self):
        """(delta x)(sigma) = x(boundary sigma); ring tag preserved."""
        nums = self.complex.coboundary_values(self.degree, self.row.nums)
        return Cochain(self.complex, self.degree + 1, self.ring,
                       IntRow(nums, self.row.den))

    def evaluate(self, chain):
        total = self.pair_nums(chain)
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
        """Whether delta x == 0, on the integer row (over Q/Z, mod den)."""
        nums = self.complex.coboundary_values(self.degree, self.row.nums)
        if self.ring is Ring.QMODZ:
            return not any(v % self.row.den for v in nums)
        return not any(nums)

    def __repr__(self):
        return "Cochain(%s, deg=%d, %s)" % (
            self.ring.value, self.degree, [str(v) for v in self.values])


# ---------------------------------------------------------------------------
# cohomology and homology with constructive witnesses

@dataclass(frozen=True)
class Torsion:
    """A generator of finite order: order * gen == image * witness, for
    the image matrix of its presentation."""

    order: int
    gen: tuple
    witness: tuple


@dataclass(frozen=True)
class Presentation:
    """Constructive presentation of a kernel modulo an image in degree k:
    H^k(X; Z) = ker delta^k / im delta^{k-1} or H_k(X; Z) = ker d_k / im d_{k+1}.

    basis    Z-basis of the kernel lattice (cocycles or cycles)
    free     kernel members projecting to a basis of the free part
    torsion  Torsion generators with their witnesses
    group    the abstract group
    """

    degree: int
    basis: tuple
    free: tuple
    torsion: tuple
    group: FgAbelianGroup


@cache
def _empty_presentation(k):
    return Presentation(k, (), (), (), FgAbelianGroup(0))


def _presentation(k, kernel_smith, image_gens, image_smith):
    """The presentation of ker m / im image in degree k, for m * image == 0,
    from kernel_smith = smith_form(m), the columns of the image matrix and
    image_smith = smith_form(image); the torsion witnesses are integer
    solves on image_smith."""
    basis = tuple(tuple(v) for v in kernel_smith.kernel())
    z = len(basis)
    if not (z and image_gens):
        return Presentation(k, basis, basis, (), FgAbelianGroup(z))
    ambient = len(basis[0])
    # m == 0 (top-degree cohomology, H_0): the kernel basis is the standard
    # one, and the relations matrix is the image matrix, already reduced
    if kernel_smith.rank == 0:
        relations = image_smith
    else:
        # B, columns r.. of the unimodular v, has u' B^T v' == (I | 0) for
        # left = smith_form(B^T), so B y == g for y = u'^T times the first
        # z entries of v'^T g; B y == g is re-checked on the sparse v
        left = smith_form(Matrix(z, ambient, basis))
        v, r = kernel_smith.v_cols, kernel_smith.rank
        coords = []
        for col in image_gens:
            y = left.u_rows.combine(list(left.v_cols.times(col, 0, z)), 0, z)
            if v.combine(y, r, ambient) != list(col):
                raise ArithmeticError("image generator is not in the kernel lattice")
            coords.append(y)
        relations = smith_form(Matrix.from_columns(coords, rows=z))
    # the kernel members of the basis that diagonalizes the relations
    gens = []
    for i in range(z):
        g = [0] * ambient
        for t, coeff in relations.u_inv_cols.entries(i):
            g = [a + coeff * b for a, b in zip(g, basis[t])]
        gens.append(tuple(g))
    rank_img = relations.rank
    torsion = []
    for d, g in zip(relations.diagonal, gens):
        if d >= 2:
            wit = image_smith.solve([d * x for x in g])
            if wit is None:
                raise ArithmeticError("torsion witness system has no solution")
            torsion.append(Torsion(d, g, tuple(wit)))
    group = FgAbelianGroup(z - rank_img, tuple(t.order for t in torsion))
    return Presentation(k, basis, tuple(gens[rank_img:]), tuple(torsion), group)


def cohomology(complex, k, ring):
    """H^k with the requested coefficients.

    Z      -> FgAbelianGroup
    Q      -> integer rank
    Q/Z    -> (divisible_rank, finite FgAbelianGroup)
    """
    ring = Ring(ring)
    if not (0 <= k <= complex.dim):
        raise ValueError("degree %d out of range 0..%d" % (k, complex.dim))
    if ring is Ring.Q:
        return complex.cohomology_structure(k).group.rank
    if ring is Ring.Z:
        return complex.cohomology_structure(k).group
    # Q/Z: Hom(H_k, Q/Z) = (Q/Z)^rank H_k + torsion(H_k), read off the matrices
    hst = complex.homology_structure(k)
    return (hst.group.rank, FgAbelianGroup(0, hst.group.torsion_factors))


# ---------------------------------------------------------------------------
# text formats

def _tokenize(line):
    """Split a line into (token, 1-based column) pairs, dropping comments;
    tokens are separated by what str.isspace() calls whitespace."""
    return [(m.group(), m.start() + 1)
            for m in re.finditer(r"\S+", line.partition("#")[0])]


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(text):
    """The value of text when it is an ASCII integer [+-]?[0-9]+, else
    None; int() alone would also read '1_0', ' 1' and non-ASCII digits."""
    return int(text) if _INTEGER.fullmatch(text) else None


def _parse_int(tok, lineno, col, what):
    value = _integer(tok)
    if value is None:
        raise ComplexParseError(lineno, col, "expected %s, got %r" % (what, tok))
    return value


def _once(first_lines, key, lineno, col, what=None):
    """Record that `key` is given on line lineno.  A second one would
    silently replace the first, so it is a parse error at (lineno, col)
    that names the first line."""
    if key in first_lines:
        raise ComplexParseError(lineno, col, "%s repeats the one on line %d"
                                % (what or key, first_lines[key]))
    first_lines[key] = lineno


def _numbered(text):
    """A text's lines as (line number, text) pairs, numbered from 1."""
    return list(enumerate(text.splitlines(), start=1))


def _directives(lines, single):
    """Scan (line number, text) pairs: yield (line, key, column, args) for
    each line that holds a token, args being the (token, column) pairs after
    its first token, the key.  `single` maps each single-valued key to what
    its argument is: such a key takes exactly one argument and is given
    once, else the line is a parse error at the key."""
    first_lines = {}
    for lineno, raw in lines:
        toks = _tokenize(raw)
        if not toks:
            continue
        (key, kcol), args = toks[0], toks[1:]
        if key in single:
            _once(first_lines, key, lineno, kcol)
            if len(args) != 1:
                raise ComplexParseError(lineno, kcol, "%s takes one %s"
                                        % (key, single[key]))
        yield lineno, key, kcol, args


# Bound on the faces a complex file may ask the face closure to enumerate,
# summed as 2^|f| - 1 over its facets: about 1,000 times the ~1,000
# simplices of the largest complexes the checks are meant for.
MAX_FACE_ENUMERATION = 1 << 20


def load_complex(text):
    """Parse the complex file format.

    Lines: `name <identifier>`, `vertices <n>`, `facet v0 v1 ...`,
    with `#` comments.  Every vertex 0..n-1 must lie in some facet (an
    isolated vertex v is written `facet v`), or the count is refused.
    Facets are closed under faces automatically; a
    file whose facets would enumerate more than MAX_FACE_ENUMERATION faces
    is rejected at the facet that passes the bound.
    """
    name = None
    n_vertices = None
    facets = []
    enumerated = 0
    for lineno, key, kcol, args in _directives(
            _numbered(text), {"name": "identifier", "vertices": "count"}):
        if key == "name":
            name = args[0][0]
        elif key == "vertices":
            (tok, col), = args
            n_vertices = _parse_int(tok, lineno, col, "a vertex count")
            count_at = (lineno, col)
            if n_vertices <= 0:
                raise ComplexParseError(lineno, col, "vertex count must be positive")
        elif key == "facet":
            if n_vertices is None:
                raise ComplexParseError(lineno, kcol,
                                        "facet before the vertices line")
            if not args:
                raise ComplexParseError(lineno, kcol, "facet needs vertex indices")
            parsed = [(_parse_int(tok, lineno, col, "a vertex index"), col)
                      for tok, col in args]
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
    used = set().union(*facets)
    unused = next((v for v in range(n_vertices) if v not in used), None)
    if unused is not None:
        raise ComplexParseError(*count_at, "vertex %d is in no facet; an isolated "
                                "vertex is written 'facet %d'" % (unused, unused))
    return SimplicialComplex.from_facets(name, n_vertices, facets)


def _parse_fraction(tok, lineno, col):
    num, slash, den = tok.partition("/")
    num, den = _integer(num), _integer(den) if slash else 1
    if num is None or not den:
        raise ComplexParseError(lineno, col, "expected p or p/q, got %r" % tok)
    return Fraction(num, den)


def parse_cochain_lines(lines, complex, header_line, *, expect_ring=None):
    """Parse `degree`, `ring`, `value` lines, given as (line number, text)
    pairs, into a Cochain.  A missing degree or ring line, or a ring other
    than the `Ring` member `expect_ring`, is reported at `header_line`: the
    line that opens the lines (1 for a whole file)."""
    degree = None
    ring = None
    values = {}
    value_lines = {}  # value simplex -> its line
    fractional = []  # (line, column, message) of each non-integer value
    for lineno, key, kcol, args in _directives(
            lines, {"degree": "argument", "ring": "argument"}):
        if key == "degree":
            (tok, col), = args
            degree = _parse_int(tok, lineno, col, "a degree")
        elif key == "ring":
            (tok, col), = args
            try:
                ring = Ring(tok)
            except ValueError:
                raise ComplexParseError(lineno, col, "unknown ring %r" % tok)
        elif key == "value":
            if degree is None:
                raise ComplexParseError(lineno, kcol, "value before degree line")
            if len(args) != 2:
                raise ComplexParseError(lineno, kcol,
                                        "value takes a simplex and a scalar")
            (stext, scol), (vtext, vcol) = args
            simplex = tuple(map(_integer, stext.split(",")))
            if None in simplex:
                raise ComplexParseError(lineno, scol,
                                        "bad simplex tuple %r" % stext)
            try:
                idx = complex.index_of(degree, simplex)
            except KeyError:
                raise ComplexParseError(lineno, scol,
                                        "no %d-simplex %r" % (degree, simplex))
            _once(value_lines, simplex, lineno, kcol, "value for %s" % stext)
            v = values[idx] = _parse_fraction(vtext, lineno, vcol)
            if v.denominator != 1:
                fractional.append((lineno, vcol, "non-integer value %s "
                                   "in a Z-cochain" % v))
        else:
            raise ComplexParseError(lineno, kcol, "unknown directive %r" % key)
    if degree is None or ring is None:
        raise ComplexParseError(header_line, 1, "cochain needs degree and ring lines")
    if expect_ring is not None and ring is not expect_ring:
        raise ComplexParseError(header_line, 1, "expected ring %s" % expect_ring.value)
    if ring is Ring.Z and fractional:
        raise ComplexParseError(*fractional[0])
    vals = [values.get(i, 0) for i in range(complex.n_simplices(degree))]
    return Cochain(complex, degree, ring, vals)


def load_cochain(text, complex):
    return parse_cochain_lines(_numbered(text), complex, 1)


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
