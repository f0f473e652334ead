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

from .exactalg import IntRow
from .plforms import (WhitneyForm, d as d_form, format_whitney_form,
                      parse_whitney_lines)
from .simplicial import (Cochain, ComplexParseError, Coords, Ring, _directives,
                         _numbered, _once, _parse_int, format_cochain,
                         parse_cochain_lines)


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

    def _slots(self):
        if self.curvature is None:
            return self.integral, self.potential
        return self.integral, self.potential, self.curvature

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
    """The differential, in all three degree regimes; dhat o dhat == 0.

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
    if not x.integral.is_cocycle():
        return False
    if any(_dhat_potential(x)[0]):
        return False
    return x.curvature is None or x.curvature.is_closed()


class CoboundarySolver:
    """Decides membership in the coboundary subgroup of the level-k complex
    at degree k, on the complex's own Smith form of delta^{k-2}.

    Since dhat(c', T') = (delta c', -c' - delta T', 0), a triple (c, h, 0)
    is a coboundary exactly when c == -delta h and -h splits as an
    integral cochain c' plus a rational coboundary delta T'.
    """

    def __init__(self, complex, degree):
        self.complex = complex
        self.degree = degree
        self._smith = complex.coboundary_smith(degree - 2)

    def solve(self, x):
        """Witness y with dhat(y) == x, or None."""
        if x.complex is not self.complex or x.degree != self.degree:
            raise ValueError("solver built for a different complex or degree")
        if x.level != x.degree:
            raise ValueError("coboundary test lives at level q = degree k")
        if x.curvature is not None and not x.curvature.is_zero():
            return None
        cx, k = self.complex, self.degree
        hnums, hden = x.potential.row
        dh = cx.coboundary_values(k - 1, hnums)
        if any(hden * c + v for c, v in zip(x.integral.row.nums, dh)):
            return None
        res = self._smith.split(IntRow([-v for v in hnums], hden))
        if res is None:
            return None
        cprime, tprime = res
        y = DiffCochain(cx, k, k - 1, Cochain(cx, k - 1, Ring.Z, cprime),
                        Cochain(cx, k - 2, Ring.Q, tprime), None)
        if dhat(y) != x:
            raise ArithmeticError("coboundary witness failed to re-verify")
        return y


def evaluate_character(x, z):
    """The differential character of a cocycle: potential mod Z on cycles.

    Shifting x by any coboundary dhat(c', T') changes the potential by
    -j(c') - delta T', whose value on a cycle is an integer, so the result
    only depends on the class of x.
    """
    if x.level != x.degree:
        raise ValueError("characters live at level q = degree k")
    val = x.potential.evaluate(z)  # a (k-1)-chain on x's complex
    if not z.is_cycle():
        raise ValueError("evaluation chain is not a cycle")
    if not is_cocycle(x):
        raise ValueError("character evaluation needs a cocycle")
    return val - (val.numerator // val.denominator)


# ---------------------------------------------------------------------------
# file format: sections c, T, omega

def format_diff_cochain(x):
    parts = ["level %d" % x.level, "section c",
             format_cochain(x.integral).rstrip("\n"),
             "section T", format_cochain(x.potential).rstrip("\n")]
    if x.curvature is not None:
        parts += ["section omega",
                  format_whitney_form(x.curvature).rstrip("\n")]
    return "\n".join(parts) + "\n"


def load_diff_cochain(text, complex):
    level = None
    sections = {}
    opened_at = {}  # section -> its line
    degree_at = {}  # section -> (line, column) of its degree line
    current = None
    lines = _numbered(text)
    for lineno, key, kcol, args in _directives(lines, {"level": "integer"}):
        if key == "level":
            (tok, col), = args
            level = _parse_int(tok, lineno, col, "a level")
            level_at = (lineno, kcol)
            continue
        if key == "section":
            if len(args) != 1 or args[0][0] not in ("c", "T", "omega"):
                raise ComplexParseError(lineno, kcol,
                                        "section must be c, T or omega")
            (current, ncol), = args
            _once(opened_at, current, lineno, ncol, "section %s" % current)
            sections[current] = []
            continue
        if current is None:
            raise ComplexParseError(lineno, kcol, "content outside any section")
        sections[current].append(lines[lineno - 1])
        if key == "degree":
            degree_at[current] = (lineno, kcol)
    if level is None:
        raise ComplexParseError(1, 1, "missing level line")
    if "c" not in sections or "T" not in sections:
        raise ComplexParseError(1, 1, "sections c and T are required")
    c = parse_cochain_lines(sections["c"], complex, opened_at["c"],
                            expect_ring=Ring.Z)
    t = parse_cochain_lines(sections["T"], complex, opened_at["T"],
                            expect_ring=Ring.Q)
    curvature = None
    if "omega" in sections:
        curvature = parse_whitney_lines(sections["omega"], complex,
                                        opened_at["omega"])
    for name, part, want in (("T", t, c.degree - 1),
                             ("omega", curvature, c.degree)):
        if part is not None and part.degree != want:
            raise ComplexParseError(*degree_at[name], "section %s has degree "
                                    "%d, but section c of degree %d needs %d"
                                    % (name, part.degree, c.degree, want))
    if (curvature is not None) != (c.degree >= level):
        raise ComplexParseError(*level_at, "level %d with section c of "
                                "degree %d needs %s section omega"
                                % (level, c.degree,
                                   "a" if c.degree >= level else "no"))
    return DiffCochain(complex, level, c.degree, c, t, curvature)
