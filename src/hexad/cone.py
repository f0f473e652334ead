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

from .exactalg import MixedSolver, MixedSubgroup, MixedWitness
from .report import CheckRun
from .sampling import derive_seed, random_cochain, random_combination, rng_for
from .simplicial import Chain, Cochain, Coords, Ring, combine


class ConeCochain(Coords):
    """Element (u, v) of the cone complex in the given cone degree."""

    __slots__ = ("complex", "degree", "integral", "rational")

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

    @classmethod
    def zero(cls, complex, degree):
        return cls(complex, degree,
                   Cochain.zero(complex, degree + 1, Ring.Z),
                   Cochain.zero(complex, degree, Ring.Q))

    def _key(self):
        return (self.complex, self.degree)

    def _coords(self):
        return self.integral.values + self.rational.values

    def _like(self, coords):
        cx, k = self.complex, self.degree
        n = len(self.integral.values)
        return ConeCochain(cx, k, Cochain(cx, k + 1, Ring.Z, coords[:n]),
                           Cochain(cx, k, Ring.Q, coords[n:]))

    def is_cocycle(self):
        return delta_cone(self).is_zero()

    def __repr__(self):
        return "ConeCochain(deg=%d, u=%r, v=%r)" % (
            self.degree, list(self.integral.values),
            [str(v) for v in self.rational.values])


def delta_cone(x):
    """delta_cone(u, v) = (-delta u, delta v - j(u)); squares to zero."""
    return ConeCochain(x.complex, x.degree + 1,
                       -x.integral.coboundary(),
                       x.rational.coboundary() - x.integral.as_q())


def alpha_cone(c):
    """Inclusion of rational cochains: alpha(c) = (0, c)."""
    if c.ring is not Ring.Q:
        c = c.as_q()
    return ConeCochain(c.complex, c.degree,
                       Cochain.zero(c.complex, c.degree + 1, Ring.Z), c)


def gamma_cone(x):
    """Projection to the shifted integral part: gamma(u, v) = -u."""
    return -x.integral


def cone_section(u):
    """Right inverse of gamma on cochains: u -> (-u, 0)."""
    if u.ring is not Ring.Z:
        raise ValueError("section expects an integral cochain")
    return ConeCochain(u.complex, u.degree - 1, -u,
                       Cochain.zero(u.complex, u.degree - 1, Ring.Q))


def cone_retraction(x):
    """Left inverse of alpha on cochains: (u, v) -> v."""
    return x.rational


def cone_coboundary_subgroup(complex, degree):
    """Image of delta_cone landing in cone degree `degree`, as a mixed
    subgroup of the flattened (u, v) coordinates."""
    nup = complex.n_simplices(degree + 1)
    ndn = complex.n_simplices(degree)
    nprev = complex.n_simplices(degree - 1)
    delta_dn = complex.coboundary_matrix(degree)      # C^degree -> C^{degree+1}
    delta_prev = complex.coboundary_matrix(degree - 1)
    lattice = []
    for i in range(ndn):
        col = delta_dn.column(i)
        vec = [-v for v in col] + [0] * ndn
        vec[nup + i] = -1
        lattice.append(vec)
    space = []
    for j in range(nprev):
        col = delta_prev.column(j)
        space.append([0] * nup + list(col))
    return MixedSubgroup(nup + ndn, lattice, space)


class ConeCoboundarySolver:
    """Reusable witness finder: x = delta_cone(y) with y reconstructed."""

    def __init__(self, complex, degree):
        self.complex = complex
        self.degree = degree
        self.subgroup = cone_coboundary_subgroup(complex, degree)
        self._solver = MixedSolver(self.subgroup)

    def solve(self, x):
        if x.complex is not self.complex or x.degree != self.degree:
            raise ValueError("solver built for a different complex or degree")
        res = self._solver.membership(x._coords())
        if not isinstance(res, MixedWitness):
            return None
        y = ConeCochain(self.complex, self.degree - 1,
                        Cochain(self.complex, self.degree, Ring.Z,
                                res.lattice_coeffs),
                        Cochain(self.complex, self.degree - 1, Ring.Q,
                                res.space_coeffs))
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


def _qmodz_cocycle_targets(complex, degree, rng, trials):
    """Sample Q/Z-cocycles of degree `degree`: coboundaries, divisible
    classes and torsion classes, with a nonzero-class certificate (a cycle
    with non-integral pairing) attached when one exists."""
    targets = []
    zero = Cochain.zero(complex, degree, Ring.QMODZ)
    targets.append((zero, None))
    for _ in range(max(1, trials // 3)):
        s = random_cochain(rng, complex, degree - 1, Ring.Q)
        targets.append((s.coboundary().mod1(), None))
    st = complex.cohomology_structure(degree)
    for g in st.free_gens:
        for den in (2, 3):
            v = Cochain(complex, degree, Ring.Q,
                        [Fraction(x, den) for x in g])
            targets.append((v.mod1(), _nonintegral_cycle(complex, v)))
    for tor in complex.cohomology_structure(degree + 1).torsion_gens:
        v = Cochain(complex, degree, Ring.Q,
                    [Fraction(x, tor.order) for x in tor.primitive])
        targets.append((v.mod1(), _nonintegral_cycle(complex, v)))
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


def cone_cohomology_compare(complex, degree, trials=25, seed=0):
    """Two-sided witness check of the comparison [(u, v)] -> [v mod Z].

    Well-definedness is checked on coboundary generators, surjectivity by
    constructing an explicit cone preimage for sampled Q/Z-cocycles
    (including torsion classes), and injectivity by solving for a cone
    coboundary witness on sampled kernel elements while nonzero classes
    carry an independent non-integrality certificate.
    """
    run = CheckRun("cone_comparison", seed=derive(seed, "cone_comparison", degree))
    rng = rng_for(run.seed, "cone_comparison_rng")
    solver = ConeCoboundarySolver(complex, degree)

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
    for vbar, certificate in _qmodz_cocycle_targets(complex, degree, rng, trials):
        run.require(vbar.coboundary().is_zero(), "target is a Q/Z-cocycle",
                    target=vbar)
        v = Cochain(complex, degree, Ring.Q, vbar.values)
        dv = v.coboundary()
        run.require(all(x.denominator == 1 for x in dv.values),
                    "lifted coboundary is integral", target=vbar)
        u = Cochain(complex, degree + 1, Ring.Z, [int(x) for x in dv.values])
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


def les_exactness(complex, degree, trials=25, seed=0):
    """Witness-checked exactness of the induced long exact sequence around
    H^degree(cone): composites vanish with explicit primitives and sampled
    kernel classes receive preimage witnesses."""
    run = CheckRun("les_exactness", seed=derive(seed, "les_exactness", degree))
    rng = rng_for(run.seed, "les_exactness_rng")
    k = degree
    delta_q = complex.coboundary_matrix(k + 1)

    # gamma(alpha(c)) == 0 identically
    zst = complex.cohomology_structure(k)
    rational_cocycles = [Cochain(complex, k, Ring.Q, list(z))
                         for z in zst.cocycle_basis]
    for c in rational_cocycles + [random_cochain(rng, complex, k, Ring.Q)
                                  for _ in range(trials // 4 + 1)]:
        run.require(gamma_cone(alpha_cone(c)).is_zero(),
                    "gamma after alpha vanishes", input=c)

    # j(gamma(z)) is exactly a coboundary, with primitive -v
    lattice, space = cone_cocycle_generators(complex, k)
    samples = list(lattice) + list(space)
    for _ in range(trials // 2 + 1):
        z = random_combination(rng, ConeCochain.zero(complex, k),
                               lattice, space)
        samples.append(z)
    for z in samples:
        run.require(z.is_cocycle(), "sample is a cone cocycle", sample=z)
        jg = gamma_cone(z).as_q()
        run.require(jg == (-z.rational).coboundary(),
                    "j(gamma) equals the coboundary of minus the rational part",
                    sample=z)

    # alpha(j(u)) is exactly a cone coboundary, with primitive (-u, 0)
    for zvec in complex.cohomology_structure(k + 1).cocycle_basis:
        u = Cochain(complex, k + 1, Ring.Z, list(zvec))
        lhs = alpha_cone(u.as_q())
        prim = ConeCochain(complex, k, -u,
                           Cochain.zero(complex, k, Ring.Q))
        run.require(delta_cone(prim) == lhs,
                    "alpha(j(u)) is the cone coboundary of (-u, 0)", input=u)

    # exactness at H^k(cone): gamma-kernel classes decompose as
    # alpha(cocycle) + cone coboundary, witnessed by a mixed solve
    sub = cone_coboundary_subgroup(complex, k)
    nup = complex.n_simplices(k + 1)
    ndn = complex.n_simplices(k)
    space_gens = list(sub.space_gens) + [
        [Fraction(0)] * nup + [Fraction(x) for x in z]
        for z in zst.cocycle_basis]
    decomp = MixedSolver(MixedSubgroup(nup + ndn, sub.lattice_gens, space_gens))
    n_delta_space = len(sub.space_gens)
    for _ in range(trials):
        c = random_combination(rng, Cochain.zero(complex, k, Ring.Q), (),
                               rational_cocycles)
        m = random_cochain(rng, complex, k, Ring.Z)
        s = random_cochain(rng, complex, k - 1, Ring.Q)
        z = alpha_cone(c) + delta_cone(ConeCochain(complex, k - 1, m, s))
        run.require(gamma_cone(z).coboundary().is_zero(),
                    "gamma image of sample is an integral cocycle", sample=z)
        res = decomp.membership(z._coords())
        if run.require(isinstance(res, MixedWitness),
                       "gamma-kernel sample decomposes", sample=z):
            y = ConeCochain(complex, k - 1,
                            Cochain(complex, k, Ring.Z, res.lattice_coeffs),
                            Cochain(complex, k - 1, Ring.Q,
                                    res.space_coeffs[:n_delta_space]))
            cc = combine(Cochain.zero(complex, k, Ring.Q), (), (),
                         res.space_coeffs[n_delta_space:], rational_cocycles)
            run.require(alpha_cone(cc) + delta_cone(y) == z,
                        "decomposition re-verifies", sample=z)
            run.require(cc.is_cocycle(), "alpha part is a cocycle", sample=z)

    # exactness at H^{k+1}(Z): classes killed by j receive gamma preimages
    st_next = complex.cohomology_structure(k + 1)
    factored_k = complex.coboundary_factored(k)
    for tor in st_next.torsion_gens:
        t = Cochain(complex, k + 1, Ring.Z, list(tor.gen))
        v = factored_k.solve(t.values)
        if run.require(v is not None, "torsion class dies rationally", cls=t):
            z = ConeCochain(complex, k, -t,
                            Cochain(complex, k, Ring.Q, [-x for x in v]))
            run.require(z.is_cocycle(), "gamma preimage is a cocycle", cls=t)
            run.require(gamma_cone(z) == t, "gamma preimage hits the class",
                        cls=t)
    for _ in range(trials // 2 + 1):
        m = random_cochain(rng, complex, k, Ring.Z)
        t = m.coboundary()
        v = factored_k.solve(t.values)
        if run.require(v is not None, "coboundary class dies rationally",
                       cls=t):
            z = ConeCochain(complex, k, -t,
                            Cochain(complex, k, Ring.Q, [-x for x in v]))
            run.require(z.is_cocycle() and gamma_cone(z) == t,
                        "gamma preimage for coboundary class", cls=t)
    # free classes do not die under j: certified and unreachable
    for g in st_next.free_gens:
        t = Cochain(complex, k + 1, Ring.Z, list(g))
        cert = _nonintegral_cycle(complex,
                                  Cochain(complex, k + 1, Ring.Q,
                                          [Fraction(x, 2) for x in g]))
        v = factored_k.solve(t.values)
        run.require(v is None, "free class survives j", cls=t, cert=cert)
    return run.report()


def derive(seed, name, degree):
    return derive_seed(seed, "%s@%d" % (name, degree))
