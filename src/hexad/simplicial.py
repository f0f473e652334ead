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

from .exactalg import (
    Factored,
    FgAbelianGroup,
    Matrix,
    hnf_solve,
    kernel_basis,
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
    """Immutable finite abstract simplicial complex with cached matrices
    and one rational factorization per coboundary degree."""

    __slots__ = ("name", "n_vertices", "simplices", "_index", "_bound",
                 "_cob_sparse", "_cob_factored", "_cohom", "_homol")

    def __init__(self, name, n_vertices, simplices_by_dim, *, check=True):
        self.name = str(name)
        self.n_vertices = int(n_vertices)
        simps = []
        for k, lst in enumerate(simplices_by_dim):
            simps.append(tuple(tuple(int(v) for v in s) for s in sorted(lst)))
        while simps and not simps[-1]:
            simps.pop()
        self.simplices = tuple(simps)
        self._index = tuple({s: i for i, s in enumerate(lst)} for lst in self.simplices)
        self._bound = {}
        self._cob_sparse = {}
        self._cob_factored = {}
        self._cohom = {}
        self._homol = {}
        if check:
            violations = validate_data(self.n_vertices, self.simplices)
            if violations:
                raise InvalidComplexError(violations)
            # boundary matrices for 1..dim; everything else has a zero shape
            for k in range(1, self.dim + 1):
                self._bound[k] = self._build_boundary(k)
                self._cob_sparse[k - 1] = self._build_cob_sparse(k - 1)
            for k in range(-1, self.dim + 1):
                self._cob_factored[k] = Factored(self.coboundary_matrix(k))
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
        return len(self.simplices_of(k))

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
        # row structure of delta^k: for each (k+1)-simplex, its faces with signs
        rows = []
        index = self._index[k] if 0 <= k <= self.dim else {}
        for s in self.simplices_of(k + 1):
            entries = []
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                entries.append((index[face], -1 if i % 2 else 1))
            rows.append(tuple(entries))
        return tuple(rows)

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

    def coboundary_values(self, k, values):
        """Apply delta^k to a value vector, skipping zero entries.

        Semantically identical to coboundary_matrix(k).mul_vec(values); the
        signs are read from the precomputed sparse face lists.
        """
        rows = self._cob_sparse.get(k)
        if rows is None:
            return [0] * self.n_simplices(k + 1)
        out = []
        for row in rows:
            acc = 0
            for j, sign in row:
                v = values[j]
                if v:
                    acc = acc + v if sign > 0 else acc - v
            out.append(acc)
        return out

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


def validate(complex_or_data, simplices_by_dim=None):
    """Structural validity check.

    Accepts either a SimplicialComplex or (n_vertices, simplices_by_dim).
    Returns the list of violations (empty = ok).
    """
    if isinstance(complex_or_data, SimplicialComplex):
        return validate_data(complex_or_data.n_vertices, complex_or_data.simplices)
    return validate_data(complex_or_data, simplices_by_dim)


def boundary_matrix(complex, k):
    """Boundary matrix of degree k; columns are k-simplices."""
    if not (1 <= k <= complex.dim):
        raise ValueError("boundary degree %d out of range 1..%d" % (k, complex.dim))
    return complex.boundary(k)


# ---------------------------------------------------------------------------
# chains and cochains

class Chain:
    """Integer k-chain, indexed by the k-simplices of its complex."""

    __slots__ = ("complex", "degree", "coeffs")

    def __init__(self, complex, degree, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != complex.n_simplices(degree):
            raise ValueError("chain has %d coefficients, expected %d"
                             % (len(coeffs), complex.n_simplices(degree)))
        self.complex = complex
        self.degree = degree
        self.coeffs = coeffs

    @classmethod
    def zero(cls, complex, degree):
        return cls(complex, degree, [0] * complex.n_simplices(degree))

    @classmethod
    def basis(cls, complex, degree, i):
        coeffs = [0] * complex.n_simplices(degree)
        coeffs[i] = 1
        return cls(complex, degree, coeffs)

    def boundary(self):
        mat = self.complex.boundary(self.degree)
        return Chain(self.complex, self.degree - 1, mat.mul_vec(list(self.coeffs)))

    def is_cycle(self):
        return all(c == 0 for c in self.boundary().coeffs)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        self._compat(other)
        return Chain(self.complex, self.degree,
                     [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._compat(other)
        return Chain(self.complex, self.degree,
                     [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return Chain(self.complex, self.degree, [-a for a in self.coeffs])

    def scale(self, n):
        return Chain(self.complex, self.degree, [n * a for a in self.coeffs])

    def _compat(self, other):
        if self.complex is not other.complex or self.degree != other.degree:
            raise ValueError("chains live on different complexes or degrees")

    def __eq__(self, other):
        return (isinstance(other, Chain) and self.complex is other.complex
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __repr__(self):
        return "Chain(deg=%d, %r)" % (self.degree, list(self.coeffs))


def _normalize_value(ring, v):
    if ring is Ring.Z:
        if type(v) is int:
            return v
        f = Fraction(v)
        if f.denominator != 1:
            raise ValueError("non-integer value %r in a Z-cochain" % (v,))
        return int(f)
    if ring is Ring.Q:
        return v if type(v) is Fraction else Fraction(v)
    f = v if type(v) is Fraction else Fraction(v)
    return f - (f.numerator // f.denominator)  # representative in [0, 1)


class Cochain:
    """Degree-k cochain over Z, Q or Q/Z.

    Q/Z values are kept as the unique rational representative in [0, 1),
    so equality of cochains is equality of the underlying functions.
    """

    __slots__ = ("complex", "degree", "ring", "values")

    def __init__(self, complex, degree, ring, values):
        ring = _as_ring(ring)
        values = tuple(_normalize_value(ring, v) for v in values)
        if len(values) != complex.n_simplices(degree):
            raise ValueError("cochain has %d values, expected %d"
                             % (len(values), complex.n_simplices(degree)))
        self.complex = complex
        self.degree = degree
        self.ring = ring
        self.values = values

    @classmethod
    def zero(cls, complex, degree, ring):
        return cls(complex, degree, ring, [0] * complex.n_simplices(degree))

    @classmethod
    def basis(cls, complex, degree, ring, i):
        values = [0] * complex.n_simplices(degree)
        values[i] = 1
        return cls(complex, degree, ring, values)

    def coboundary(self):
        """(delta x)(sigma) = x(boundary sigma); ring tag preserved."""
        vals = self.complex.coboundary_values(self.degree, self.values)
        return Cochain(self.complex, self.degree + 1, self.ring, vals)

    def evaluate(self, chain):
        if chain.degree != self.degree:
            raise ValueError("cochain degree %d evaluated on %d-chain"
                             % (self.degree, chain.degree))
        total = Fraction(0)
        for v, c in zip(self.values, chain.coeffs):
            if v and c:
                total += v * c
        if self.ring is Ring.Z:
            return int(total)
        if self.ring is Ring.QMODZ:
            return total - (total.numerator // total.denominator)
        return total

    def as_q(self):
        """Coefficient inclusion into Q (the identity on Q-cochains)."""
        if self.ring is Ring.QMODZ:
            raise ValueError("no canonical lift of a Q/Z-cochain to Q")
        return Cochain(self.complex, self.degree, Ring.Q, self.values)

    def mod1(self):
        """Reduction mod Z: Q -> Q/Z."""
        if self.ring is Ring.QMODZ:
            return self
        return Cochain(self.complex, self.degree, Ring.QMODZ, self.values)

    def is_zero(self):
        return all(v == 0 for v in self.values)

    def is_cocycle(self):
        return self.coboundary().is_zero()

    def __add__(self, other):
        self._compat(other)
        return Cochain(self.complex, self.degree, self.ring,
                       [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        self._compat(other)
        return Cochain(self.complex, self.degree, self.ring,
                       [a - b for a, b in zip(self.values, other.values)])

    def __neg__(self):
        return Cochain(self.complex, self.degree, self.ring,
                       [-a for a in self.values])

    def scale(self, s):
        return Cochain(self.complex, self.degree, self.ring,
                       [s * a for a in self.values])

    def _compat(self, other):
        if (self.complex is not other.complex or self.degree != other.degree
                or self.ring is not other.ring):
            raise ValueError("cochains are not compatible")

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.complex is other.complex
                and self.degree == other.degree and self.ring is other.ring
                and self.values == other.values)

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


def _quotient_presentation(kernel_vecs, image_cols, image_op):
    """Shared kernel-mod-image bookkeeping.

    kernel_vecs: Z-basis of the kernel lattice (list of int vectors)
    image_cols: generators of the image sublattice (each a kernel member)
    image_op: matrix whose integer solutions certify `order * gen = op(x)`

    Returns (free_gens, torsion_list, group) where torsion_list has entries
    (order, gen_vector, solver_witness).
    """
    z = len(kernel_vecs)
    if z == 0:
        return (), (), FgAbelianGroup(0)
    ambient = len(kernel_vecs[0])
    kernel_fact = Factored(Matrix.from_columns(kernel_vecs, rows=ambient))
    coords = []
    for col in image_cols:
        sol = kernel_fact.solve(col)
        if sol is None or any(s.denominator != 1 for s in sol):
            raise ArithmeticError("image generator is not in the kernel lattice")
        coords.append([int(s) for s in sol])
    if coords:
        rel = Matrix.from_columns(coords, rows=z)
        f = smith_form(rel)
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
            wit = hnf_solve(image_op, [d * x for x in gens[i]])
            if wit is None:
                raise ArithmeticError("torsion witness system has no solution")
            torsion.append((d, gens[i], tuple(wit)))
    group = FgAbelianGroup(z - rank_img, tuple(d for d, _, _ in torsion))
    return free_gens, tuple(torsion), group


def _cohomology_structure(complex, k):
    delta_k = complex.coboundary_matrix(k)
    delta_prev = complex.coboundary_matrix(k - 1)
    nk = complex.n_simplices(k)
    if nk == 0:
        return CohomologyStructure(k, (), (), (), (), FgAbelianGroup(0), 0)
    cocycles = [tuple(v) for v in kernel_basis(delta_k)]
    coboundaries = [tuple(delta_prev.column(j)) for j in range(delta_prev.cols)]
    free_gens, torsion, group = _quotient_presentation(
        [list(v) for v in cocycles], [list(c) for c in coboundaries], delta_prev)
    torsion_gens = tuple(TorsionClass(d, tuple(g), w) for d, g, w in torsion)
    q_rank = ((nk - complex.coboundary_factored(k).rank)
              - complex.coboundary_factored(k - 1).rank)
    return CohomologyStructure(k, tuple(cocycles), tuple(coboundaries),
                               free_gens, torsion_gens, group, q_rank)


def _homology_structure(complex, k):
    bd_k = complex.boundary(k)
    bd_next = complex.boundary(k + 1)
    nk = complex.n_simplices(k)
    if nk == 0:
        return HomologyStructure(k, (), (), (), (), FgAbelianGroup(0))
    cycles = [tuple(v) for v in kernel_basis(bd_k)]
    boundaries = [tuple(bd_next.column(j)) for j in range(bd_next.cols)]
    free_cycles, torsion, group = _quotient_presentation(
        [list(v) for v in cycles], [list(c) for c in boundaries], bd_next)
    torsion_cycles = tuple(TorsionCycle(d, tuple(g), w) for d, g, w in torsion)
    return HomologyStructure(k, tuple(cycles), tuple(boundaries),
                             free_cycles, torsion_cycles, group)


@dataclass(frozen=True)
class HomologyBasis:
    degree: int
    free_cycles: tuple
    torsion: FgAbelianGroup


def homology_basis(complex, k):
    """Cycles projecting to a Z-basis of H_k modulo torsion."""
    if not (0 <= k <= complex.dim):
        raise ValueError("degree %d out of range" % k)
    st = complex.homology_structure(k)
    cycles = tuple(Chain(complex, k, list(v)) for v in st.free_cycles)
    return HomologyBasis(k, cycles, st.group)


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


def load_complex(text):
    """Parse the complex file format.

    Lines: `name <identifier>`, `vertices <n>`, `facet v0 v1 ...`,
    with `#` comments.  Facets are closed under faces automatically.
    """
    name = None
    n_vertices = None
    facets = []
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
