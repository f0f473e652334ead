"""Piecewise-linear (Whitney) differential forms.

A degree-k form is a rational combination of the elementary Whitney forms
w_sigma attached to the k-simplices, normalized so that the integral of
w_sigma over sigma is 1 and over any other k-simplex is 0.  With that
normalization the de Rham map (integration over simplices) is the identity
on coordinates, the Whitney map is its inverse, and the exterior
derivative acts by the simplicial coboundary matrix.  All the analytic
identities of the smooth theory become exact linear algebra.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .exactalg import IntRow
from .simplicial import (Cochain, ComplexParseError, Coords, Ring, _directives,
                         _numbered, format_cochain, parse_cochain_lines)


class NotExactError(ValueError):
    """Raised when a primitive is requested for a non-exact target."""


class WhitneyForm(Coords):
    """Rational coefficients in the elementary-Whitney-form basis, kept as
    one `IntRow`."""

    __slots__ = ("complex", "degree", "row")

    def __init__(self, complex, degree, coeffs):
        row = IntRow.of(coeffs)
        if len(row.nums) != complex.n_simplices(degree):
            raise ValueError("form has %d coefficients, expected %d"
                             % (len(row.nums), complex.n_simplices(degree)))
        self.complex = complex
        self.degree = degree
        self.row = row

    @property
    def coeffs(self):
        """The coefficients as Fractions."""
        return self.row.fractions()

    def _key(self):
        return (self.complex, self.degree)

    def _like(self, row):
        return WhitneyForm(self.complex, self.degree, row)

    @classmethod
    def zero(cls, complex, degree):
        return cls(complex, degree,
                   IntRow((0,) * complex.n_simplices(degree), 1))

    def is_closed(self):
        """Whether d(self) == 0, decided on the integer row."""
        return not any(self.complex.coboundary_values(self.degree,
                                                      self.row.nums))

    def __repr__(self):
        return "WhitneyForm(deg=%d, %s)" % (self.degree,
                                            [str(c) for c in self.coeffs])


def d(form):
    """Exterior derivative; the coboundary matrix in Whitney coordinates."""
    nums = form.complex.coboundary_values(form.degree, form.row.nums)
    return WhitneyForm(form.complex, form.degree + 1, IntRow(nums, form.row.den))


def integrate(form, chain):
    """Integral of a k-form over a k-chain (bilinear, exact)."""
    return Fraction(form.pair_nums(chain), form.row.den)


def derham_cochain(form):
    """The simplex-integration cochain of a form; identity on coordinates."""
    return Cochain(form.complex, form.degree, Ring.Q, form.row)


def whitney(cochain):
    """The Whitney map C^k(X; Q) -> PL k-forms, inverse to integration."""
    if cochain.ring is Ring.QMODZ:
        raise ValueError("the Whitney map needs honest rational values")
    return WhitneyForm(cochain.complex, cochain.degree, cochain.row)


def period_vector(form):
    """Periods of a closed form over the free homology basis in its degree:
    the integer pairing of its numerators with each free cycle, over its
    denominator, as a tuple of Fractions."""
    if not form.is_closed():
        raise ValueError("period vector of a non-closed form")
    return _periods(form)


def _periods(form):
    nums, den = form.row
    free = form.complex.homology_structure(form.degree).free
    return tuple(Fraction(sum(map(mul, nums, z)), den) for z in free)


def in_omega_A(form):
    """Whether a form lies in Omega^k_Z: closed, with all periods in Z.

    Periods over torsion classes and boundaries vanish for closed forms, so
    integrality over the free basis decides integrality over every integral
    homology class.
    """
    return form.is_closed() and all(v.denominator == 1 for v in _periods(form))


def find_primitive(target):
    """A form eta with derham_cochain(d eta) == target, raised to NotExactError
    when the target cochain is not a rational coboundary.

    The construction solves delta y = target over Q on the complex's Smith
    form of delta (`SmithForm.solve_q`) and returns whitney(y).
    """
    if target.ring is not Ring.Q:
        target = target.as_q()
    y = target.complex.coboundary_smith(target.degree - 1).solve_q(target.row)
    if y is None:
        raise NotExactError("target cochain is not a coboundary")
    eta = WhitneyForm(target.complex, target.degree - 1, y)
    if derham_cochain(d(eta)) != target:
        raise ArithmeticError("primitive construction failed to re-verify")
    return eta


def derham_representative(cocycle):
    """Deterministic closed-form representative of a rational cohomology
    class given by a cocycle: the Whitney form of the cocycle itself."""
    if cocycle.ring is not Ring.Q:
        cocycle = cocycle.as_q()
    if not cocycle.is_cocycle():
        raise ValueError("representative requested for a non-cocycle")
    return whitney(cocycle)


def format_whitney_form(form):
    """A `whitney-form` header over the form's de Rham cochain file."""
    return "whitney-form\n" + format_cochain(derham_cochain(form))


def load_whitney_form(text, complex):
    return parse_whitney_lines(_numbered(text), complex, 1)


def parse_whitney_lines(lines, complex, header_line):
    """Parse a `whitney-form` header and the `ring Q` cochain lines after
    it, given as (line number, text) pairs in file order; lines holding no
    header are reported at `header_line`, the line that opens them (1 for
    a whole file)."""
    first = next(_directives(lines, {}), None)
    if first is None:
        raise ComplexParseError(header_line, 1, "expected whitney-form header")
    header, key, kcol, args = first
    if key != "whitney-form" or args:
        raise ComplexParseError(header, kcol, "expected whitney-form header")
    body = [(lineno, raw) for lineno, raw in lines if lineno > header]
    return whitney(parse_cochain_lines(body, complex, header,
                                       expect_ring=Ring.Q))
