"""Mapping cone of the coefficient inclusion Z -> Q.

Cone cochains in degree k are pairs (u, v) with u an integral cochain of
degree k+1 and v a rational cochain of degree k; the differential is

    delta_cone(u, v) = (-delta u, delta v - j(u)).

The cone computes the cohomology that plays the role of H^*(X; R/Z): the
explicit comparison sends a class [(u, v)] to [v mod Z], and both
directions of that comparison are witnessed constructively here.
"""

from __future__ import annotations

from fractions import Fraction

from .exactalg import IntRow
from .hscomplex import CoboundarySolver, DiffCochain
from .plforms import WhitneyForm
from .report import CheckRun
from .sampling import derive_seed, random_cochain, random_combination, rng_for
from .simplicial import Chain, Cochain, Coords, Ring


class ConeCochain(Coords):
    """Element (u, v) of the cone complex in the given cone degree."""

    __slots__ = ("complex", "degree", "integral", "rational", "_joined")

    def __init__(self, complex, degree, integral, rational):
        if integral.complex is not complex or rational.complex is not complex:
            raise ValueError("components live on a different complex")
        if integral.ring is not Ring.Z or integral.degree != degree + 1:
            raise ValueError("integral part must be a Z-cochain of degree %d"
                             % (degree + 1))
        if rational.ring is not Ring.Q or rational.degree != degree:
            raise ValueError("rational part must be a Q-cochain of degree %d"
                             % degree)
        self.complex = complex
        self.degree = degree
        self.integral = integral
        self.rational = rational
        self._joined = None

    @classmethod
    def zero(cls, complex, degree):
        return cls(complex, degree,
                   Cochain.zero(complex, degree + 1, Ring.Z),
                   Cochain.zero(complex, degree, Ring.Q))

    def _key(self):
        return (self.complex, self.degree)

    def _row(self):
        # integral values, then rational values, over one denominator;
        # joined on first use and kept
        row = self._joined
        if row is None:
            row = self._joined = IntRow.join((self.integral.row,
                                              self.rational.row))
        return row

    def _like(self, row):
        cx, k = self.complex, self.degree
        nums, den = row
        n = len(self.integral.row.nums)
        z = ConeCochain(cx, k, Cochain(cx, k + 1, Ring.Z, IntRow(nums[:n], den)),
                        Cochain(cx, k, Ring.Q, IntRow(nums[n:], den)))
        z._joined = row
        return z

    def is_cocycle(self):
        """Whether delta_cone(self) == 0, decided on the integer rows
        without building the image: delta u == 0 and delta v == j(u)."""
        cx, k = self.complex, self.degree
        u = self.integral.row.nums
        if any(cx.coboundary_values(k + 1, u)):
            return False
        vnums, vden = self.rational.row
        return (cx.coboundary_values(k, vnums)
                == list(map(vden.__mul__, u)))

    def __repr__(self):
        return "ConeCochain(deg=%d, u=%r, v=%r)" % (
            self.degree, list(self.integral.values),
            [str(v) for v in self.rational.values])


def delta_cone(x):
    """delta_cone(u, v) = (-delta u, delta v - j(u)); squares to zero.

    Each slot is computed on the integer rows and built once."""
    cx, k = x.complex, x.degree
    u = x.integral.row.nums
    vnums, vden = x.rational.row
    du = cx.coboundary_values(k + 1, u)
    dv = cx.coboundary_values(k, vnums)
    return ConeCochain(
        cx, k + 1,
        Cochain(cx, k + 2, Ring.Z, IntRow([-a for a in du], 1)),
        Cochain(cx, k + 1, Ring.Q,
                IntRow([b - vden * a for a, b in zip(u, dv)], vden)))


def alpha_cone(c):
    """Inclusion of rational cochains: alpha(c) = (0, c)."""
    if c.ring is not Ring.Q:
        c = c.as_q()
    return ConeCochain(c.complex, c.degree,
                       Cochain.zero(c.complex, c.degree + 1, Ring.Z), c)


def gamma_cone(x):
    """Projection to the shifted integral part: gamma(u, v) = -u."""
    return -x.integral


class ConeCoboundarySolver:
    """Reusable witness finder: x = delta_cone(y) with y reconstructed.

    The inclusion i(u, v) = (-u, v, 0) into the level-(k+1) differential
    complex is injective and carries cone coboundaries exactly onto
    differential ones, i(delta_cone(m, s)) = dhat(m, -s), so cone degree k
    is decided by the differential CoboundarySolver of degree k+1.
    """

    def __init__(self, complex, degree):
        self.complex = complex
        self.degree = degree
        self.solver = CoboundarySolver(complex, degree + 1)

    def solve(self, x):
        if x.complex is not self.complex or x.degree != self.degree:
            raise ValueError("solver built for a different complex or degree")
        cx, k = self.complex, self.degree
        w = self.solver.solve(DiffCochain(cx, k + 1, k + 1, -x.integral,
                                          x.rational,
                                          WhitneyForm.zero(cx, k + 1)))
        if w is None:
            return None
        y = ConeCochain(cx, k - 1, w.integral, -w.potential)
        if delta_cone(y) != x:
            raise ArithmeticError("cone coboundary witness failed to re-verify")
        return y


def cone_cocycle_generators(complex, degree):
    """Generators of the cone cocycles in the given cone degree.

    Returns (lattice, space): integer combinations of `lattice` plus
    rational combinations of `space` exhaust the cocycle group.  The
    lattice part pairs every integral cochain m with (delta m, j m) and
    every torsion class t of the next integral cohomology with its scaled
    primitive; the space part is (0, z) over a basis of rational cocycles.
    """
    lattice = []
    for i in range(complex.n_simplices(degree)):
        m = Cochain.basis(complex, degree, Ring.Z, i)
        lattice.append(ConeCochain(complex, degree, m.coboundary(), m.as_q()))
    st = complex.cohomology_structure(degree + 1)
    for tor in st.torsion_gens:
        t = Cochain(complex, degree + 1, Ring.Z, list(tor.gen))
        s = Cochain(complex, degree, Ring.Q,
                    [Fraction(v, tor.order) for v in tor.primitive])
        lattice.append(ConeCochain(complex, degree, t, s))
    space = []
    for z in complex.cohomology_structure(degree).cocycle_basis:
        v = Cochain(complex, degree, Ring.Q, list(z))
        space.append(ConeCochain(complex, degree,
                                 Cochain.zero(complex, degree + 1, Ring.Z), v))
    return lattice, space


def _qmodz_cocycle_targets(ctx, rng):
    """Sample Q/Z-cocycles one degree below the hexagon: coboundaries,
    divisible classes and torsion classes, with a nonzero-class certificate
    (a cycle with non-integral pairing) attached when one exists."""
    complex, degree = ctx.complex, ctx.degree - 1
    targets = [(Cochain.zero(complex, degree, Ring.QMODZ), None)]
    for _ in range(max(1, ctx.trials // 3)):
        s = random_cochain(rng, complex, degree - 1, Ring.Q)
        targets.append((s.coboundary().mod1(), None))
    targets += [(v.mod1(), cert) for v, cert in ctx.fractional_km1]
    targets += [(z.rational.mod1(), cert) for z, cert in ctx.torsion_cone_km1]
    return targets


def _nonintegral_cycle(complex, v):
    """A cycle on which the rational cochain v has non-integral value, or
    None; such a cycle certifies that [v mod Z] is a nonzero class."""
    if not (0 <= v.degree <= complex.dim):
        return None
    hst = complex.homology_structure(v.degree)
    candidates = [Chain(complex, v.degree, list(c)) for c in hst.free_cycles]
    candidates += [Chain(complex, v.degree, list(t.cycle))
                   for t in hst.torsion_cycles]
    for z in candidates:
        if v.evaluate(z).denominator != 1:
            return z
    return None


def cone_cohomology_compare(ctx):
    """Two-sided witness check of the comparison [(u, v)] -> [v mod Z] in
    cone degree ctx.degree - 1.

    Well-definedness is checked on coboundary generators, surjectivity by
    constructing an explicit cone preimage for sampled Q/Z-cocycles
    (including torsion classes), and injectivity by solving for a cone
    coboundary witness on sampled kernel elements while nonzero classes
    carry an independent non-integrality certificate.
    """
    complex, degree, trials = ctx.complex, ctx.degree - 1, ctx.trials
    run = CheckRun("cone_comparison")
    rng = rng_for(derive(ctx.seed, "cone_comparison", degree),
                  "cone_comparison_rng")
    solver = ctx.cone_cb_solver

    # well-definedness: generators of the coboundary group map to Q/Z
    # coboundaries with explicit primitives
    for i in range(complex.n_simplices(degree)):
        m = Cochain.basis(complex, degree, Ring.Z, i)
        y = ConeCochain(complex, degree - 1, m,
                        Cochain.zero(complex, degree - 1, Ring.Q))
        img = delta_cone(y).rational.mod1()
        run.require(img.is_zero(), "coboundary generator (m, 0) maps to zero mod Z",
                    generator=m)
    for j in range(complex.n_simplices(degree - 1)):
        s = Cochain.basis(complex, degree - 1, Ring.Q, j)
        y = ConeCochain(complex, degree - 1,
                        Cochain.zero(complex, degree, Ring.Z), s)
        img = delta_cone(y).rational.mod1()
        run.require(img == s.coboundary().mod1(),
                    "coboundary generator (0, s) maps to delta(s mod Z)",
                    generator=s)

    # surjectivity with constructive lifts
    for vbar, certificate in _qmodz_cocycle_targets(ctx, rng):
        run.require(vbar.coboundary().is_zero(), "target is a Q/Z-cocycle",
                    target=vbar)
        v = Cochain(complex, degree, Ring.Q, vbar.row)
        dv = v.coboundary()
        run.require(dv.row.den == 1, "lifted coboundary is integral", target=vbar)
        u = Cochain(complex, degree + 1, Ring.Z, dv.row)
        z = ConeCochain(complex, degree, u, v)
        run.require(z.is_cocycle(), "lift is a cone cocycle", target=vbar)
        run.require(z.rational.mod1() == vbar, "lift maps back to the target",
                    target=vbar)
        if certificate is not None:
            # the class is certified nonzero; its lift must not be a coboundary
            wit = solver.solve(z)
            run.require(wit is None,
                        "nonzero class lift incorrectly exhibited as coboundary",
                        target=vbar, cycle=certificate)

    # injectivity: kernel elements receive cone coboundary witnesses
    for _ in range(trials):
        m = random_cochain(rng, complex, degree, Ring.Z)
        s = random_cochain(rng, complex, degree - 1, Ring.Q)
        z = ConeCochain(complex, degree, m.coboundary(),
                        s.coboundary() + m.as_q())
        run.require(z.is_cocycle(), "kernel sample is a cone cocycle", sample=z)
        run.require(z.rational.mod1() == s.mod1().coboundary(),
                    "kernel sample maps to a Q/Z coboundary", sample=z)
        wit = solver.solve(z)
        if run.require(wit is not None,
                       "kernel sample has a cone coboundary witness", sample=z):
            run.require(delta_cone(wit) == z, "witness re-verifies", sample=z)
    return run.report()


def les_exactness(ctx):
    """Witness-checked exactness of the induced long exact sequence around
    H^k(cone), k = ctx.degree - 1: composites vanish with explicit
    primitives and sampled kernel classes receive preimage witnesses."""
    complex, k, trials = ctx.complex, ctx.degree - 1, ctx.trials
    run = CheckRun("les_exactness")
    rng = rng_for(derive(ctx.seed, "les_exactness", k), "les_exactness_rng")

    # gamma(alpha(c)) == 0 identically
    rational_cocycles = [z.rational for z in ctx.cone_space]
    for c in rational_cocycles + [random_cochain(rng, complex, k, Ring.Q)
                                  for _ in range(trials // 4 + 1)]:
        run.require(gamma_cone(alpha_cone(c)).is_zero(),
                    "gamma after alpha vanishes", input=c)

    # j(gamma(z)) is exactly a coboundary, with primitive -v
    samples = list(ctx.cone_lattice) + list(ctx.cone_space)
    samples += [ctx.random_cone_cocycle(rng) for _ in range(trials // 2 + 1)]
    for z in samples:
        run.require(z.is_cocycle(), "sample is a cone cocycle", sample=z)
        jg = gamma_cone(z).as_q()
        run.require(jg == (-z.rational).coboundary(),
                    "j(gamma) equals the coboundary of minus the rational part",
                    sample=z)

    # alpha(j(u)) is exactly a cone coboundary, with primitive (-u, 0)
    for u in ctx.cocycle_basis_k:
        lhs = alpha_cone(u.as_q())
        prim = ConeCochain(complex, k, -u,
                           Cochain.zero(complex, k, Ring.Q))
        run.require(delta_cone(prim) == lhs,
                    "alpha(j(u)) is the cone coboundary of (-u, 0)", input=u)

    # exactness at H^k(cone): a gamma-kernel sample (u, v) has u = -delta m
    # over Z, and then (u, v) = alpha(v + j m) + delta_cone(m, 0)
    smith_k = complex.coboundary_smith(k)
    for _ in range(trials):
        c = random_combination(rng, Cochain.zero(complex, k, Ring.Q), (),
                               rational_cocycles)
        m = random_cochain(rng, complex, k, Ring.Z)
        s = random_cochain(rng, complex, k - 1, Ring.Q)
        z = alpha_cone(c) + delta_cone(ConeCochain(complex, k - 1, m, s))
        run.require(gamma_cone(z).coboundary().is_zero(),
                    "gamma image of sample is an integral cocycle", sample=z)
        prim = smith_k.solve((-z.integral).row.nums)
        if run.require(prim is not None,
                       "gamma-kernel sample decomposes", sample=z):
            y = ConeCochain(complex, k - 1, Cochain(complex, k, Ring.Z, prim),
                            Cochain.zero(complex, k - 1, Ring.Q))
            cc = z.rational + y.integral.as_q()
            run.require(alpha_cone(cc) + delta_cone(y) == z,
                        "decomposition re-verifies", sample=z)
            run.require(cc.is_cocycle(), "alpha part is a cocycle", sample=z)

    # exactness at H^{k+1}(Z): classes killed by j receive gamma preimages
    st_next = complex.cohomology_structure(k + 1)
    factored_k = complex.coboundary_factored(k)
    for tor in st_next.torsion_gens:
        t = Cochain(complex, k + 1, Ring.Z, list(tor.gen))
        v = factored_k.solve(t.row)
        if run.require(v is not None, "torsion class dies rationally", cls=t):
            z = ConeCochain(complex, k, -t,
                            Cochain(complex, k, Ring.Q, v.scaled(-1)))
            run.require(z.is_cocycle(), "gamma preimage is a cocycle", cls=t)
            run.require(gamma_cone(z) == t, "gamma preimage hits the class",
                        cls=t)
    for _ in range(trials // 2 + 1):
        m = random_cochain(rng, complex, k, Ring.Z)
        t = m.coboundary()
        v = factored_k.solve(t.row)
        if run.require(v is not None, "coboundary class dies rationally",
                       cls=t):
            z = ConeCochain(complex, k, -t,
                            Cochain(complex, k, Ring.Q, v.scaled(-1)))
            run.require(z.is_cocycle() and gamma_cone(z) == t,
                        "gamma preimage for coboundary class", cls=t)
    # free classes do not die under j: certified and unreachable
    for g in st_next.free_gens:
        t = Cochain(complex, k + 1, Ring.Z, list(g))
        cert = _nonintegral_cycle(complex,
                                  Cochain(complex, k + 1, Ring.Q,
                                          [Fraction(x, 2) for x in g]))
        v = factored_k.solve(t.row)
        run.require(v is None, "free class survives j", cls=t, cert=cert)
    return run.report()


def derive(seed, name, degree):
    return derive_seed(seed, "%s@%d" % (name, degree))
