"""The differential cochain complex and its character evaluation.

A level-q differential cochain of degree k is a triple: an integral
cochain (the underlying characteristic data), a rational cochain one
degree lower (the potential whose coboundary measures the failure of the
form to be integral), and, in degrees k >= q, a PL form (the curvature).
The differential mixes the simplicial coboundary with integration:

    dhat(c, T, w) = (delta c, int(w) - j(c) - delta T, d w)      k >= q
    dhat(c, T)    = (delta c, -j(c) - delta T, 0)                k = q - 1
    dhat(c, T)    = (delta c, -j(c) - delta T)                   k < q - 1

Cocycles at level q = degree k represent differential characters: the
potential restricted to (k-1)-cycles, taken mod Z, only depends on the
cocycle's class.
"""

from __future__ import annotations

from math import lcm

from .exactalg import IntRow, MixedSolver, MixedSubgroup, MixedWitness
from .plforms import WhitneyForm, d as d_form
from .simplicial import Chain, Cochain, Coords, Ring


class DiffCochain(Coords):
    """Element of the level-q differential cochain group in degree k.

    Fields: `integral` is the Z-cochain of degree k, `potential` the
    Q-cochain of degree k-1, and `curvature` the degree-k form (present
    exactly when k >= q).
    """

    __slots__ = ("complex", "level", "degree", "integral", "potential",
                 "curvature", "_joined")

    def __init__(self, complex, level, degree, integral, potential,
                 curvature=None):
        if integral.complex is not complex or potential.complex is not complex:
            raise ValueError("components live on a different complex")
        if integral.ring is not Ring.Z or integral.degree != degree:
            raise ValueError("integral part must be a Z-cochain of degree %d"
                             % degree)
        if potential.ring is not Ring.Q or potential.degree != degree - 1:
            raise ValueError("potential must be a Q-cochain of degree %d"
                             % (degree - 1))
        if degree >= level:
            if curvature is None:
                raise ValueError("degree %d >= level %d requires a curvature form"
                                 % (degree, level))
            if curvature.complex is not complex or curvature.degree != degree:
                raise ValueError("curvature must be a degree-%d form" % degree)
        elif curvature is not None:
            raise ValueError("no curvature slot below the level")
        self.complex = complex
        self.level = level
        self.degree = degree
        self.integral = integral
        self.potential = potential
        self.curvature = curvature
        self._joined = None

    @classmethod
    def zero(cls, complex, level, degree):
        curv = WhitneyForm.zero(complex, degree) if degree >= level else None
        return cls(complex, level, degree,
                   Cochain.zero(complex, degree, Ring.Z),
                   Cochain.zero(complex, degree - 1, Ring.Q),
                   curv)

    def _key(self):
        return (self.complex, self.level, self.degree)

    def _row(self):
        # integral values, then potential values, then curvature
        # coefficients when present, over one common denominator; joined
        # on first use and kept
        row = self._joined
        if row is None:
            rows = [self.integral.row, self.potential.row]
            if self.curvature is not None:
                rows.append(self.curvature.row)
            row = self._joined = IntRow.join(rows)
        return row

    def _like(self, row):
        cx, k = self.complex, self.degree
        nums, den = row
        n = len(self.integral.row.nums)
        m = n + len(self.potential.row.nums)
        curv = None
        if self.curvature is not None:
            curv = WhitneyForm(cx, k, IntRow(nums[m:], den))
        x = DiffCochain(cx, self.level, k,
                        Cochain(cx, k, Ring.Z, IntRow(nums[:n], den)),
                        Cochain(cx, k - 1, Ring.Q, IntRow(nums[n:m], den)),
                        curv)
        x._joined = row
        return x

    def __repr__(self):
        return ("DiffCochain(q=%d, k=%d, c=%r, T=%r, w=%r)"
                % (self.level, self.degree, list(self.integral.values),
                   [str(v) for v in self.potential.values],
                   None if self.curvature is None
                   else [str(v) for v in self.curvature.coeffs]))


def _dhat_potential(x):
    """(nums, den) of int(w) - j(c) - delta T, the potential slot of
    dhat(x), with w read as 0 below the level."""
    cx, k = x.complex, x.degree
    c = x.integral.row.nums
    tnums, tden = x.potential.row
    dt = cx.coboundary_values(k - 1, tnums)
    if x.curvature is None:
        return [-tden * a - b for a, b in zip(c, dt)], tden
    wnums, wden = x.curvature.row
    den = lcm(wden, tden)
    fw, ft = den // wden, den // tden
    return [fw * w - den * a - ft * b for w, a, b in zip(wnums, c, dt)], den


def dhat(x):
    """The differential, in all three degree regimes; dhat(dhat(x)) == 0.

    Each slot is computed on the integer rows and built once."""
    cx, q, k = x.complex, x.level, x.degree
    dc = cx.coboundary_values(k, x.integral.row.nums)
    if x.curvature is not None:
        curv = d_form(x.curvature)
    else:
        curv = WhitneyForm.zero(cx, k + 1) if k == q - 1 else None
    return DiffCochain(cx, q, k + 1, Cochain(cx, k + 1, Ring.Z, IntRow(dc, 1)),
                       Cochain(cx, k, Ring.Q, IntRow(*_dhat_potential(x))),
                       curv)


def is_cocycle(x):
    """Whether dhat(x) == 0, decided slot by slot on the integer rows
    without building the image: delta c == 0, int(w) - j(c) - delta T == 0
    and d w == 0."""
    cx, k = x.complex, x.degree
    if any(cx.coboundary_values(k, x.integral.row.nums)):
        return False
    if any(_dhat_potential(x)[0]):
        return False
    return (x.curvature is None
            or not any(cx.coboundary_values(k, x.curvature.row.nums)))


class CoboundarySolver:
    """Decides membership in the coboundary subgroup of the level-k complex
    at degree k, with reusable reduction data.

    A coboundary dhat(c', T') has curvature zero and its (integral,
    potential) pair lies in the mixed subgroup generated over Z by
    (delta e_i, -e_i) for integral basis cochains e_i and over Q by
    (0, -delta e_j) for rational basis cochains one degree lower.
    """

    def __init__(self, complex, degree):
        self.complex = complex
        self.degree = degree
        nk = complex.n_simplices(degree)
        nkm1 = complex.n_simplices(degree - 1)
        nkm2 = complex.n_simplices(degree - 2)
        delta_km1 = complex.coboundary_matrix(degree - 1)
        delta_km2 = complex.coboundary_matrix(degree - 2)
        lattice = []
        for i in range(nkm1):
            col = delta_km1.column(i)
            vec = list(col) + [0] * nkm1
            vec[nk + i] = -1
            lattice.append(vec)
        space = []
        for j in range(nkm2):
            col = delta_km2.column(j)
            space.append([0] * nk + [-v for v in col])
        self.subgroup = MixedSubgroup(nk + nkm1, lattice, space)
        self._solver = MixedSolver(self.subgroup)

    def solve(self, x):
        """Witness y with dhat(y) == x, or None."""
        if x.complex is not self.complex or x.degree != self.degree:
            raise ValueError("solver built for a different complex or degree")
        if x.level != x.degree:
            raise ValueError("coboundary test lives at level q = degree k")
        if x.curvature is not None and not x.curvature.is_zero():
            return None
        # the curvature is zero: the kept row is (c, T) followed by zeros
        nums, den = x._row()
        res = self._solver.membership(
            IntRow(nums[:self._solver.subgroup.ambient_dim], den))
        if not isinstance(res, MixedWitness):
            return None
        cx = self.complex
        cprime = Cochain(cx, self.degree - 1, Ring.Z, res.lattice_coeffs)
        tprime = Cochain(cx, self.degree - 2, Ring.Q, res.space_coeffs)
        y = DiffCochain(cx, self.degree, self.degree - 1, cprime, tprime, None)
        if dhat(y) != x:
            raise ArithmeticError("coboundary witness failed to re-verify")
        return y


def evaluate_character(x, z):
    """The differential character of a cocycle: potential mod Z on cycles.

    Shifting x by any coboundary dhat(c', T') changes the potential by
    -j(c') - delta T', whose value on a cycle is an integer, so the result
    only depends on the class of x.
    """
    if not isinstance(z, Chain):
        raise TypeError("evaluate_character expects a Chain")
    if x.level != x.degree:
        raise ValueError("characters live at level q = degree k")
    if z.degree != x.degree - 1:
        raise ValueError("character of degree %d evaluates on %d-cycles"
                         % (x.degree, x.degree - 1))
    if not z.is_cycle():
        raise ValueError("evaluation chain is not a cycle")
    if not is_cocycle(x):
        raise ValueError("character evaluation needs a cocycle")
    val = x.potential.evaluate(z)
    return val - (val.numerator // val.denominator)


# ---------------------------------------------------------------------------
# file format: sections c, T, omega

def format_diff_cochain(x):
    from .plforms import format_whitney_form
    from .simplicial import format_cochain
    parts = ["level %d" % x.level, "section c",
             format_cochain(x.integral).rstrip("\n"),
             "section T", format_cochain(x.potential).rstrip("\n")]
    if x.curvature is not None:
        parts += ["section omega",
                  format_whitney_form(x.curvature).rstrip("\n")]
    return "\n".join(parts) + "\n"


def load_diff_cochain(text, complex):
    from .plforms import load_whitney_form
    from .simplicial import ComplexParseError, parse_cochain_lines
    level = None
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#")[0].strip()
        if not stripped:
            continue
        toks = stripped.split()
        if toks[0] == "level":
            if len(toks) != 2 or not toks[1].lstrip("-").isdigit():
                raise ComplexParseError(lineno, 1, "level takes one integer")
            level = int(toks[1])
            continue
        if toks[0] == "section":
            if len(toks) != 2 or toks[1] not in ("c", "T", "omega"):
                raise ComplexParseError(lineno, 1,
                                        "section must be c, T or omega")
            current = toks[1]
            sections[current] = []
            continue
        if current is None:
            raise ComplexParseError(lineno, 1, "content outside any section")
        sections[current].append((lineno, raw))
    if level is None:
        raise ComplexParseError(1, 1, "missing level line")
    if "c" not in sections or "T" not in sections:
        raise ComplexParseError(1, 1, "sections c and T are required")
    c = parse_cochain_lines(sections["c"], complex, expect_ring=Ring.Z)
    t = parse_cochain_lines(sections["T"], complex, expect_ring=Ring.Q)
    curvature = None
    if "omega" in sections:
        body = "\n".join(raw for _, raw in sections["omega"])
        curvature = load_whitney_form(body, complex)
    return DiffCochain(complex, level, c.degree, c, t, curvature)
