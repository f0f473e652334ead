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

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .exactalg import IntRow
from .simplicial import Chain, Cochain, Coords, Ring


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

    def _row(self):
        return self.row

    def _like(self, row):
        return WhitneyForm(self.complex, self.degree, row)

    @classmethod
    def zero(cls, complex, degree):
        return cls(complex, degree, [0] * complex.n_simplices(degree))

    @classmethod
    def elementary(cls, complex, degree, i):
        coeffs = [0] * complex.n_simplices(degree)
        coeffs[i] = 1
        return cls(complex, degree, coeffs)

    def __repr__(self):
        return "WhitneyForm(deg=%d, %s)" % (self.degree,
                                            [str(c) for c in self.coeffs])


def d(form):
    """Exterior derivative; the coboundary matrix in Whitney coordinates."""
    nums = form.complex.coboundary_values(form.degree, form.row.nums)
    return WhitneyForm(form.complex, form.degree + 1, IntRow(nums, form.row.den))


def integrate(form, chain):
    """Integral of a k-form over a k-chain (bilinear, exact)."""
    if not isinstance(chain, Chain):
        raise TypeError("integrate expects a Chain")
    if chain.degree != form.degree:
        raise ValueError("cannot integrate a %d-form over a %d-chain"
                         % (form.degree, chain.degree))
    return Fraction(sum(map(mul, chain.coeffs, form.row.nums)), form.row.den)


def derham_cochain(form):
    """The simplex-integration cochain of a form; identity on coordinates."""
    return Cochain(form.complex, form.degree, Ring.Q, form.row)


def whitney(cochain):
    """The Whitney map C^k(X; Q) -> PL k-forms, inverse to integration."""
    if cochain.ring is Ring.QMODZ:
        raise ValueError("the Whitney map needs honest rational values")
    return WhitneyForm(cochain.complex, cochain.degree, cochain.row)


@dataclass(frozen=True)
class PeriodVector:
    """Integrals of a closed form over the free homology basis cycles."""

    degree: int
    values: tuple


def period_vector(form):
    """Periods of a closed form over the free homology basis in its degree."""
    if not d(form).is_zero():
        raise ValueError("period vector of a non-closed form")
    st = form.complex.homology_structure(form.degree)
    cycles = [Chain(form.complex, form.degree, list(c)) for c in st.free_cycles]
    return PeriodVector(form.degree,
                        tuple(integrate(form, z) for z in cycles))


def in_omega_A(form):
    """Whether a closed form has all periods in Z (membership in Omega^k_Z).

    Periods over torsion classes and boundaries vanish for closed forms, so
    integrality over the free basis decides integrality over every integral
    homology class.
    """
    pv = period_vector(form)
    return all(v.denominator == 1 for v in pv.values)


def find_primitive(target):
    """A form eta with derham_cochain(d eta) == target, raised to NotExactError
    when the target cochain is not a rational coboundary.

    The construction solves delta y = target over Q (deterministic in the
    elimination order) and returns whitney(y).
    """
    if target.ring is not Ring.Q:
        target = target.as_q()
    y = target.complex.coboundary_factored(target.degree - 1).solve(target.row)
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
    form = whitney(cocycle)
    if not d(form).is_zero():
        raise ArithmeticError("Whitney form of a cocycle must be closed")
    return form


def format_whitney_form(form):
    lines = ["whitney-form", "degree %d" % form.degree, "ring Q"]
    for s, v in zip(form.complex.simplices_of(form.degree), form.coeffs):
        if v != 0:
            lines.append("value %s %s" % (",".join(str(x) for x in s), v))
    return "\n".join(lines) + "\n"


def load_whitney_form(text, complex):
    from .simplicial import ComplexParseError, parse_cochain_lines
    lines = list(enumerate(text.splitlines(), start=1))
    header = None
    body = []
    for lineno, raw in lines:
        stripped = raw.split("#")[0].strip()
        if not stripped:
            continue
        if header is None:
            if stripped != "whitney-form":
                raise ComplexParseError(lineno, 1,
                                        "expected whitney-form header")
            header = lineno
            continue
        body.append((lineno, raw))
    if header is None:
        raise ComplexParseError(1, 1, "expected whitney-form header")
    cochain = parse_cochain_lines(body, complex, expect_ring=Ring.Q)
    return whitney(cochain)
