"""The refined cocycle-level hexagon: maps, witnesses and verification.

The hexagon in degree k connects, at the cocycle level,

    cone cocycles (degree k-1)          pairs (integral cocycle, rational
        |  i                        I   coboundary) in degree k
    differential cocycles at level k
        |  R                        ch, integration into rational cocycles
    closed k-forms with integer periods

together with the edge maps a, b, iota, beta and the integration map.
Every check in this module either verifies an identity exactly on a
spanning set plus seeded random samples, or produces a witness object
that is re-verified by direct evaluation before it is counted.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .cone import (
    ConeCochain,
    ConeCoboundarySolver,
    cone_cocycle_generators,
    cone_cohomology_compare,
    delta_cone,
    les_exactness,
    _nonintegral_cycle,
)
from .exactalg import (
    IntRow,
    Matrix,
    MixedSolver,
    MixedSubgroup,
    MixedWitness,
    rational_rank,
)
from .hscomplex import DiffCochain, dhat, evaluate_character, is_cocycle
from .plforms import (
    WhitneyForm,
    d as d_form,
    derham_cochain,
    derham_representative,
    find_primitive,
    in_omega_A,
    integrate,
    whitney,
)
from .report import (
    FAIL,
    NO_COUNTEREXAMPLE,
    NOT_EXACT_CONFIRMED,
    CheckReport,
    CheckRun,
)
from .sampling import (
    random_chain,
    random_cochain,
    random_combination,
    random_diff_cochain,
    random_ints,
    random_row,
    random_whitney,
    rng_for,
)
from .simplicial import Chain, Cochain, Ring, combine, validate


# ---------------------------------------------------------------------------
# the nine maps

def map_I(x):
    """Characteristic pair of a differential cocycle: (c, delta T)."""
    if not is_cocycle(x):
        raise ValueError("I is defined on differential cocycles")
    return (x.integral, x.potential.coboundary())


def map_R(x):
    """Curvature form of a differential cocycle; lands in Omega^k_Z."""
    if not is_cocycle(x):
        raise ValueError("R is defined on differential cocycles")
    omega = x.curvature
    if not in_omega_A(omega):
        raise ArithmeticError("curvature of a cocycle must have integer periods")
    return omega


def map_der(omega):
    """Integration over simplices, as the edge into rational cochains."""
    return derham_cochain(omega)


def map_a(eta):
    """a(eta) = (0, integral of eta, d eta); always a differential cocycle."""
    k = eta.degree + 1
    return DiffCochain(eta.complex, k, k,
                       Cochain.zero(eta.complex, k, Ring.Z),
                       derham_cochain(eta), d_form(eta))


def map_i(z):
    """i(u, v) = (-u, v, 0) on cone cocycles."""
    if not z.is_cocycle():
        raise ValueError("i is defined on cone cocycles")
    k = z.degree + 1
    return DiffCochain(z.complex, k, k, -z.integral, z.rational,
                       WhitneyForm.zero(z.complex, k))


def map_ch(c, t):
    """ch(c, t) = j(c) + t for an integral cocycle c and coboundary t."""
    if c.ring is not Ring.Z or not c.is_cocycle():
        raise ValueError("ch needs an integral cocycle in the first slot")
    # over Q, coboundaries are exactly the cochains killing every cycle
    for z in t.complex.homology_structure(t.degree).cycle_basis:
        if t.evaluate(Chain(t.complex, t.degree, list(z))) != 0:
            raise ValueError("ch needs a rational coboundary in the second slot")
    return c.as_q() + t


def map_beta(z):
    """beta(u, v) = (-u, delta v) on cone cocycles."""
    if not z.is_cocycle():
        raise ValueError("beta is defined on cone cocycles")
    return (-z.integral, z.rational.coboundary())


def map_b(omega):
    """b(omega) = (0, integral of omega) for closed omega; a cone cocycle."""
    if not d_form(omega).is_zero():
        raise ValueError("b is defined on closed forms")
    z = ConeCochain(omega.complex, omega.degree,
                    Cochain.zero(omega.complex, omega.degree + 1, Ring.Z),
                    derham_cochain(omega))
    if not z.is_cocycle():
        raise ArithmeticError("b must land in cone cocycles")
    return z


def map_iota(omega):
    """Inclusion of closed forms into all forms."""
    if not d_form(omega).is_zero():
        raise ValueError("iota is defined on closed forms")
    return omega


# ---------------------------------------------------------------------------
# decomposition of integer-period forms: int(omega) = j(c) + delta T

class OmegaDecomposer:
    """Solves int(omega) = j(c) + delta T with c an integral cocycle.

    Membership of the integration cochain in the mixed subgroup generated
    by the integer cocycle basis (over Z) and the coboundary columns
    (over Q) is exactly integrality of all periods.
    """

    def __init__(self, complex, degree):
        self.complex = complex
        self.degree = degree
        st = complex.cohomology_structure(degree)
        self.cocycle_basis = [Cochain(complex, degree, Ring.Z, list(z))
                              for z in st.cocycle_basis]
        delta_prev = complex.coboundary_matrix(degree - 1)
        space = [delta_prev.column(j) for j in range(delta_prev.cols)]
        self.subgroup = MixedSubgroup(complex.n_simplices(degree),
                                      list(st.cocycle_basis), space)
        self._solver = MixedSolver(self.subgroup)

    def decompose(self, form):
        if form.complex is not self.complex or form.degree != self.degree:
            raise ValueError("decomposer built for a different degree")
        if not d_form(form).is_zero():
            return None
        res = self._solver.membership(form.row)
        if not isinstance(res, MixedWitness):
            return None
        c = combine(Cochain.zero(self.complex, self.degree, Ring.Z),
                    res.lattice_coeffs, self.cocycle_basis, (), ())
        t = Cochain(self.complex, self.degree - 1, Ring.Q, res.space_coeffs)
        if derham_cochain(form) != c.as_q() + t.coboundary():
            raise ArithmeticError("period decomposition failed to re-verify")
        return c, t


def witness_R_surjective(omega, decomposer=None):
    """Differential cocycle with the given integer-period curvature.

    Decomposes int(omega) = j(c) + delta T and returns (c, T, omega); the
    result is re-verified to be a cocycle with curvature exactly omega.
    """
    if decomposer is None:
        decomposer = OmegaDecomposer(omega.complex, omega.degree)
    dec = decomposer.decompose(omega)
    if dec is None:
        raise ValueError("form is not closed with integer periods")
    c, t = dec
    x = DiffCochain(omega.complex, omega.degree, omega.degree, c, t, omega)
    if not is_cocycle(x) or map_R(x) != omega:
        raise ArithmeticError("curvature witness failed to re-verify")
    return x


def witness_I_surjective(c, t):
    """Differential cocycle x with I(x) == (c, t), for an integral cocycle c
    and rational coboundary t.

    Two constructions are run: the direct PL one (curvature is the Whitney
    form of j(c) + t) and the adjust-by-an-exact-form route through a
    primitive of the residual; they must agree on the I image.
    """
    if c.ring is not Ring.Z or not c.is_cocycle():
        raise ValueError("first slot must be an integral cocycle")
    if t.ring is not Ring.Q:
        t = t.as_q()
    sol = c.complex.coboundary_factored(t.degree - 1).solve(t.row)
    if sol is None:
        raise ValueError("second slot must be a rational coboundary")
    big_t = Cochain(c.complex, t.degree - 1, Ring.Q, sol)
    omega = whitney(c.as_q() + t)
    x1 = DiffCochain(c.complex, c.degree, c.degree, c, big_t, omega)
    if not is_cocycle(x1):
        raise ArithmeticError("direct I-witness is not a cocycle")
    # general route: start from a closed form in the right rational class
    # and correct by an exact form hitting the residual
    omega0 = whitney(c.as_q())
    residual = derham_cochain(omega0) - c.as_q() - big_t.coboundary()
    eta = find_primitive(residual)
    x2 = DiffCochain(c.complex, c.degree, c.degree, c, big_t,
                     omega0 - d_form(eta))
    if not is_cocycle(x2):
        raise ArithmeticError("adjusted I-witness is not a cocycle")
    if map_I(x1) != map_I(x2):
        raise ArithmeticError("the two I-witness constructions disagree")
    if map_I(x1) != (c, t):
        raise ArithmeticError("I-witness failed to re-verify")
    return x1


# ---------------------------------------------------------------------------
# context

class HexagonContext:
    """Everything one degree's checks need, precomputed once.

    Holds the generator systems for cone cocycles, differential cocycles
    and integer-period forms, the fixed samples one degree down, and the
    only membership solvers of the degree; all twelve checks take it.
    All fields are populated at construction and never mutated.
    """

    def __init__(self, complex, degree, seed=0, trials=25):
        if not (1 <= degree <= complex.dim + 1):
            raise ValueError("hexagon degree %d out of range 1..%d"
                             % (degree, complex.dim + 1))
        if trials < 1:
            raise ValueError("trials must be positive")
        self.complex = complex
        self.degree = degree
        self.seed = int(seed)
        self.trials = int(trials)
        k = degree
        self.cone_lattice, self.cone_space = cone_cocycle_generators(
            complex, k - 1)
        # the first n_{k-1} cone generators are of coboundary type
        # (delta e_i, j e_i); their i images have trivial characteristic
        # class, unlike the torsion-type generators that follow them
        self.n_trivial = n_trivial = complex.n_simplices(k - 1)
        # differential cocycle generators: images of the cone generators,
        # curvature witnesses over the integer cocycle basis, and the a
        # images of the standard cochain basis one degree down
        self.zhat_lattice = [map_i(z) for z in self.cone_lattice]
        st_k = complex.cohomology_structure(k)
        self.cocycle_basis_k = [Cochain(complex, k, Ring.Z, list(z))
                                for z in st_k.cocycle_basis]
        for z in self.cocycle_basis_k:
            self.zhat_lattice.append(
                DiffCochain(complex, k, k, z,
                            Cochain.zero(complex, k - 1, Ring.Q),
                            whitney(z.as_q())))
        self.zhat_space = [map_a(WhitneyForm.elementary(complex, k - 1, j))
                           for j in range(complex.n_simplices(k - 1))]
        # integer-period forms in degrees k and k-1
        self.omega_gens_k = self._omega_gens(k)
        self.omega_gens_km1 = self._omega_gens(k - 1)
        # closed forms one degree down (rational spans)
        self.closed_km1 = [whitney(z.rational) for z in self.cone_space]
        # fixed samples one degree down, each with its non-integrality
        # certificate (None when there is none): the 1/2 and 1/3 multiples
        # of the free classes, and the torsion-type cone cocycles
        self.fractional_km1 = []
        for g in complex.cohomology_structure(k - 1).free_gens:
            for den in (2, 3):
                v = Cochain(complex, k - 1, Ring.Q,
                            [Fraction(x, den) for x in g])
                self.fractional_km1.append((v, _nonintegral_cycle(complex, v)))
        self.torsion_cone_km1 = [(z, _nonintegral_cycle(complex, z.rational))
                                 for z in self.cone_lattice[n_trivial:]]
        # homology-basis cycles in degree k-1 (free plus torsion)
        st_km1 = complex.homology_structure(k - 1)
        self.cycles_km1 = [Chain(complex, k - 1, list(c))
                           for c in st_km1.free_cycles]
        self.cycles_km1 += [Chain(complex, k - 1, list(t.cycle))
                            for t in st_km1.torsion_cycles]
        # reusable solvers; the cone coboundary test is the differential
        # one conjugated by i, so both share one CoboundarySolver
        self.cone_cb_solver = ConeCoboundarySolver(complex, k - 1)
        self.bhat_solver = self.cone_cb_solver.solver
        self.decomposer_k = OmegaDecomposer(complex, k)
        self.decomposer_km1 = OmegaDecomposer(complex, k - 1)
        # the fixed targets of the form node, solved once for every check
        # that uses them: each integer-period generator one degree down
        # with its decomposition and coboundary-solver witness, and each
        # certified fractional sample with its period test and solver answer
        lattice, space = self.omega_gens_km1
        self.form_node_gens = [self.form_node_target(eta)
                               for eta in lattice + space]
        self.form_node_fractional = []
        for vc, cert in self.fractional_km1:
            if cert is not None:
                eta = whitney(vc)
                self.form_node_fractional.append(
                    (eta, cert, in_omega_A(eta),
                     self.bhat_solver.solve(map_a(eta))))

    def _omega_gens(self, m):
        st = self.complex.cohomology_structure(m)
        lattice = [whitney(Cochain(self.complex, m, Ring.Z, list(z)).as_q())
                   for z in st.cocycle_basis]
        delta_prev = self.complex.coboundary_matrix(m - 1)
        space = [whitney(Cochain(self.complex, m, Ring.Q, delta_prev.column(j)))
                 for j in range(delta_prev.cols)]
        return lattice, space

    def form_node_target(self, eta):
        """(eta, a(eta), decomposition, coboundary-solver witness) for an
        integer-period form one degree below the hexagon; the solver runs
        only when the decomposition exists."""
        a_eta = map_a(eta)
        dec = self.decomposer_km1.decompose(eta)
        wit = self.bhat_solver.solve(a_eta) if dec is not None else None
        return eta, a_eta, dec, wit

    # sampling helpers -----------------------------------------------------

    def rng(self, check_name):
        return rng_for(self.seed, "%s@%s@deg%d"
                       % (check_name, self.complex.name, self.degree))

    # Each sampler draws exactly what random_combination over the full
    # generator lists draws (one int per lattice generator in list order,
    # then one fraction per space generator) and returns the same value.
    # The coboundary-type generators are summed in closed form: with m the
    # ints of the (delta e_i, e_i)-type generators and q the fractions over
    # a-images of elementary forms or over the delta-columns,
    #     cone cocycle          (delta m, m)
    #     differential cocycle  (-delta m, m + q, W(delta q))
    #     integer-period form   W(delta q)
    # and only the remaining generators go through `combine`.

    def _trivial_class(self, m, q):
        """(-delta m, m + q, W(delta q)): the sum of the first len(m)
        generators of zhat_lattice and of zhat_space with coefficients m
        and q."""
        cx, k = self.complex, self.degree
        qnums, qden = q
        return DiffCochain(
            cx, k, k,
            Cochain(cx, k, Ring.Z,
                    IntRow([-v for v in cx.coboundary_values(k - 1, m)], 1)),
            Cochain(cx, k - 1, Ring.Q,
                    IntRow([qden * a + b for a, b in zip(m, qnums)], qden)),
            WhitneyForm(cx, k, IntRow(cx.coboundary_values(k - 1, qnums),
                                      qden)))

    def random_zhat(self, rng):
        n = self.n_trivial
        ints = random_ints(rng, len(self.zhat_lattice))
        start = self._trivial_class(ints[:n],
                                    random_row(rng, len(self.zhat_space)))
        return combine(start, ints[n:], self.zhat_lattice[n:], (), ())

    def random_trivial_zhat(self, rng):
        """Random combination of the first n_trivial generators of
        zhat_lattice and of zhat_space: a differential cocycle of trivial
        characteristic class."""
        m = random_ints(rng, self.n_trivial)
        return self._trivial_class(m, random_row(rng, len(self.zhat_space)))

    def random_cone_cocycle(self, rng):
        cx, k, n = self.complex, self.degree, self.n_trivial
        ints = random_ints(rng, len(self.cone_lattice))
        q = random_row(rng, len(self.cone_space)).fractions()
        m = ints[:n]
        start = ConeCochain(
            cx, k - 1,
            Cochain(cx, k, Ring.Z, IntRow(cx.coboundary_values(k - 1, m), 1)),
            Cochain(cx, k - 1, Ring.Q, IntRow(m, 1)))
        return combine(start, ints[n:], self.cone_lattice[n:],
                       q, self.cone_space)

    def random_omega(self, rng, degree):
        lattice, space = (self.omega_gens_k if degree == self.degree
                          else self.omega_gens_km1)
        ints = random_ints(rng, len(lattice))
        qnums, qden = random_row(rng, len(space))
        start = WhitneyForm(
            self.complex, degree,
            IntRow(self.complex.coboundary_values(degree - 1, qnums), qden))
        return combine(start, ints, lattice, (), ())

    def random_closed(self, rng):
        return random_combination(
            rng, WhitneyForm.zero(self.complex, self.degree - 1), (),
            self.closed_km1)

    def random_coboundary(self, rng):
        y = DiffCochain(
            self.complex, self.degree, self.degree - 1,
            random_cochain(rng, self.complex, self.degree - 1, Ring.Z),
            random_cochain(rng, self.complex, self.degree - 2, Ring.Q),
            None)
        return dhat(y), y


def _guarded(run, label, fn, **detail):
    """Evaluate fn(), converting contract rejections into FAIL evidence."""
    try:
        return fn()
    except (ValueError, ArithmeticError) as exc:
        run.fail(label + " (map rejected input)", error=exc, **detail)
        return None


# ---------------------------------------------------------------------------
# checks

def check_faces(ctx):
    """The four face identities, on spanning generators and random samples."""
    run = CheckRun("faces")
    rng = ctx.rng("faces")
    cx, k = ctx.complex, ctx.degree

    # R(a(eta)) == d(eta), eta over the Whitney basis and random forms
    etas = [WhitneyForm.elementary(cx, k - 1, j)
            for j in range(cx.n_simplices(k - 1))]
    etas += [random_whitney(rng, cx, k - 1) for _ in range(ctx.trials)]
    for eta in etas:
        lhs = _guarded(run, "R(a(eta))", lambda: map_R(map_a(eta)), eta=eta)
        if lhs is not None:
            run.require(lhs == d_form(eta), "R(a(eta)) == d(eta)",
                        eta=eta, lhs=lhs, rhs=d_form(eta))

    # I(i(z)) == beta(z) on cone cocycles
    zs = list(ctx.cone_lattice) + list(ctx.cone_space)
    zs += [ctx.random_cone_cocycle(rng) for _ in range(ctx.trials)]
    for z in zs:
        lhs = _guarded(run, "I(i(z))", lambda: map_I(map_i(z)), z=z)
        rhs = _guarded(run, "beta(z)", lambda: map_beta(z), z=z)
        if lhs is not None and rhs is not None:
            run.require(lhs[0] == rhs[0] and lhs[1] == rhs[1],
                        "I(i(z)) == beta(z)", z=z,
                        lhs=(lhs[0], lhs[1]), rhs=(rhs[0], rhs[1]))

    # i(b(w)) == a(iota(w)) on closed forms
    closed = list(ctx.closed_km1)
    closed += [ctx.random_closed(rng) for _ in range(ctx.trials)]
    for w in closed:
        lhs = _guarded(run, "i(b(w))", lambda: map_i(map_b(w)), w=w)
        rhs = _guarded(run, "a(iota(w))", lambda: map_a(map_iota(w)), w=w)
        if lhs is not None and rhs is not None:
            run.require(lhs == rhs, "i(b(w)) == a(iota(w))", w=w,
                        lhs=lhs, rhs=rhs)

    # ch(I(x)) == der(R(x)) on differential cocycles
    xs = list(ctx.zhat_lattice) + list(ctx.zhat_space)
    xs += [ctx.random_zhat(rng) for _ in range(ctx.trials)]
    for x in xs:
        def rightsq():
            c, t = map_I(x)
            return map_ch(c, t), map_der(map_R(x))
        pair = _guarded(run, "right square maps", rightsq, x=x)
        if pair is not None:
            run.require(pair[0] == pair[1], "ch(I(x)) == der(R(x))",
                        x=x, lhs=pair[0], rhs=pair[1])
    return run.report()


def check_main_diagonal(ctx):
    """Exactness of the main diagonal inside the cocycle groups.

    R(i(z)) == 0 identically; sampled curvature-kernel elements receive
    re-verified i preimages; i and a have zero kernel, computed as exact
    matrix ranks rather than sampled.
    """
    run = CheckRun("main_diagonal")
    rng = ctx.rng("main_diagonal")
    cx, k = ctx.complex, ctx.degree
    nk, nkm1 = cx.n_simplices(k), cx.n_simplices(k - 1)

    # R o i = 0 on generators and random cocycles
    zs = list(ctx.cone_lattice) + list(ctx.cone_space)
    zs += [ctx.random_cone_cocycle(rng) for _ in range(ctx.trials)]
    for z in zs:
        img = _guarded(run, "R(i(z))", lambda: map_R(map_i(z)), z=z)
        if img is not None:
            run.require(img.is_zero(), "R(i(z)) == 0", z=z, image=img)

    # sampled kernel elements of R receive i preimages
    for idx in range(ctx.trials):
        z = ctx.random_cone_cocycle(rng)
        eta = ctx.random_closed(rng)
        x = map_i(z) + map_a(eta)
        rimg = _guarded(run, "R on kernel sample", lambda: map_R(x), x=x)
        if rimg is not None:
            run.require(rimg.is_zero(), "kernel sample has zero curvature",
                        x=x)
        pre = ConeCochain(cx, k - 1, -x.integral, x.potential)
        run.require(pre.is_cocycle(), "reconstructed preimage is a cone cocycle",
                    x=x, preimage=pre)
        img = _guarded(run, "i(preimage)", lambda: map_i(pre), x=x)
        if img is not None:
            run.require(img == x, "i(preimage) == x", x=x, preimage=pre)

    # zero kernels, computed exactly from the defining formulas
    i_matrix = Matrix.from_rows(
        [[-1 if t == j else 0 for t in range(nk)] + [0] * nkm1
         for j in range(nk)]
        + [[0] * nk + [1 if t == j else 0 for t in range(nkm1)]
           for j in range(nkm1)]
        + [[0] * (nk + nkm1)],
        cols=nk + nkm1)
    i_rank = rational_rank(i_matrix)
    run.require(i_rank == nk + nkm1,
                "i has zero kernel (rank computation)", rank=i_rank)
    delta_km1 = cx.coboundary_matrix(k - 1)
    a_matrix = Matrix.from_rows(
        [[0] * nkm1 for _ in range(nk)]
        + [[1 if t == j else 0 for t in range(nkm1)] for j in range(nkm1)]
        + [list(delta_km1.row(i)) for i in range(delta_km1.rows)],
        cols=nkm1)
    a_rank = rational_rank(a_matrix)
    run.require(a_rank == nkm1,
                "a has zero kernel (rank computation)", rank=a_rank)
    return run.report()


def _form_node_exactness(ctx, run, rng):
    """Exactness at the form node, one degree below the hexagon: a(eta) is
    a coboundary exactly when eta is closed with integer periods, witnessed
    in both directions.  The generator targets and fractional samples are
    the context's, solved once; the random samples are this check's."""
    cx, k = ctx.complex, ctx.degree
    # integer-period forms die under a, with explicit dhat preimages
    samples = [ctx.random_omega(rng, k - 1) for _ in range(ctx.trials)]
    targets = itertools.chain(ctx.form_node_gens,
                              map(ctx.form_node_target, samples))
    for eta, a_eta, dec, wit in targets:
        if not run.require(dec is not None,
                           "integer-period form decomposes", eta=eta):
            continue
        c, t = dec
        y = DiffCochain(cx, k, k - 1, -c, -t, None)
        run.require(dhat(y) == a_eta,
                    "a(eta) == dhat(-c, -T) for integer-period eta",
                    eta=eta, preimage=y)
        if run.require(wit is not None,
                       "coboundary solver confirms a(eta)", eta=eta):
            run.require(dhat(wit) == a_eta, "solver witness re-verifies",
                        eta=eta, witness=wit)
    # fractional-period forms survive a, certified by a non-integral pairing
    for eta, cert, integral_periods, wit in ctx.form_node_fractional:
        run.require(not integral_periods,
                    "fractional-period form is outside Omega_Z", eta=eta)
        run.require(wit is None,
                    "fractional-period form survives a", eta=eta, cycle=cert)
    # non-closed forms survive a outright (their image has curvature)
    for _ in range(3):
        eta = random_whitney(rng, cx, k - 1)
        if d_form(eta).is_zero():
            continue
        wit = ctx.bhat_solver.solve(map_a(eta))
        run.require(wit is None, "non-closed form survives a", eta=eta)


def _khat_node_exactness(ctx, run, rng):
    """Exactness at the differential cocycle node: trivial characteristic
    class exactly means a(eta) plus a coboundary, witnessed."""
    cx, k = ctx.complex, ctx.degree
    for _ in range(ctx.trials):
        x = ctx.random_trivial_zhat(rng)
        cb, y0 = ctx.random_coboundary(rng)
        x = x + cb
        m = cx.coboundary_smith(k - 1).solve(x.integral.row.nums)
        if not run.require(m is not None,
                           "trivial class sample has integral primitive", x=x):
            continue
        mcochain = Cochain(cx, k - 1, Ring.Z, m)
        shift = dhat(DiffCochain(cx, k, k - 1, mcochain,
                                 Cochain.zero(cx, k - 2, Ring.Q), None))
        xprime = x - shift
        run.require(xprime.integral.is_zero(),
                    "shifted sample has zero integral slot", x=x)
        eta = whitney(xprime.potential)
        run.require(map_a(eta) == xprime,
                    "kernel sample == a(eta) + dhat(m, 0)", x=x, eta=eta)
    # converse: a images have trivial characteristic class slot
    for eta in [ctx.random_closed(rng) for _ in range(5)]:
        c, t = map_I(map_a(eta))
        run.require(c.is_zero(), "I(a(eta)) has zero integral slot", eta=eta)


def check_induced_hexagon(ctx):
    """Descent to the cohomology-level hexagon.

    (a) the four well-definedness lemmas, verified exactly on generators;
    (b) exactness of both diagonals at the cohomology level by witnesses;
    (c) the induced squares and triangles on sampled classes, with
        representative independence made explicit.
    """
    run = CheckRun("induced_hexagon")
    rng = ctx.rng("induced_hexagon")
    cx, k = ctx.complex, ctx.degree

    # (a) lemma 1: R kills coboundaries
    gens_y = [DiffCochain(cx, k, k - 1,
                          Cochain.basis(cx, k - 1, Ring.Z, i),
                          Cochain.zero(cx, k - 2, Ring.Q), None)
              for i in range(cx.n_simplices(k - 1))]
    gens_y += [DiffCochain(cx, k, k - 1,
                           Cochain.zero(cx, k - 1, Ring.Z),
                           Cochain.basis(cx, k - 2, Ring.Q, j), None)
               for j in range(cx.n_simplices(k - 2))]
    for y in gens_y:
        run.require(dhat(y).curvature.is_zero(),
                    "R vanishes on coboundary generators", y=y)

    # (a) lemma 2: integer-period forms map into coboundaries
    for eta, a_eta, dec, _ in ctx.form_node_gens:
        if run.require(dec is not None, "Omega_Z generator decomposes",
                       eta=eta):
            c, t = dec
            y = DiffCochain(cx, k, k - 1, -c, -t, None)
            run.require(dhat(y) == a_eta,
                        "a(Omega_Z generator) is an explicit coboundary",
                        eta=eta, preimage=y)

    # (a) lemma 3: i of a cone coboundary is an explicit coboundary
    cone_gens_y = [ConeCochain(cx, k - 2,
                               Cochain.basis(cx, k - 1, Ring.Z, i),
                               Cochain.zero(cx, k - 2, Ring.Q))
                   for i in range(cx.n_simplices(k - 1))]
    cone_gens_y += [ConeCochain(cx, k - 2,
                                Cochain.zero(cx, k - 1, Ring.Z),
                                Cochain.basis(cx, k - 2, Ring.Q, j))
                    for j in range(cx.n_simplices(k - 2))]
    for y in cone_gens_y:
        z = delta_cone(y)
        mirrored = DiffCochain(cx, k, k - 1, y.integral, -y.rational, None)
        run.require(map_i(z) == dhat(mirrored),
                    "i(cone coboundary) == dhat(u, -v)", y=y)

    # (a) lemma 4: I maps coboundaries into coboundary pairs
    for y in gens_y:
        c, t = map_I(dhat(y))
        run.require(c == y.integral.coboundary(),
                    "first slot of I(dhat) is an integral coboundary", y=y)
        run.require(t == (-y.integral.as_q()).coboundary(),
                    "second slot of I(dhat) is delta(-j c')", y=y)

    # (b) diagonal 1: injectivity of the induced i
    for _ in range(ctx.trials // 2 + 1):
        m = random_cochain(rng, cx, k - 1, Ring.Z)
        s = random_cochain(rng, cx, k - 2, Ring.Q)
        z = delta_cone(ConeCochain(cx, k - 2, m, s))
        wit = ctx.cone_cb_solver.solve(z)
        if run.require(wit is not None,
                       "i of a cone coboundary is recognized", z=z):
            run.require(delta_cone(wit) == z,
                        "recovered cone primitive re-verifies", z=z,
                        primitive=wit)
    for vc, cert in ctx.fractional_km1:
        if cert is None:
            continue
        z = ConeCochain(cx, k - 1, Cochain.zero(cx, k, Ring.Z), vc)
        run.require(z.is_cocycle(), "divisible sample is a cone cocycle", z=z)
        run.require(ctx.bhat_solver.solve(map_i(z)) is None,
                    "nonzero divisible class stays nonzero under i",
                    z=z, cycle=cert)
    for z, cert in ctx.torsion_cone_km1:
        run.require(z.is_cocycle(), "torsion sample is a cone cocycle", z=z)
        if cert is not None:
            run.require(ctx.bhat_solver.solve(map_i(z)) is None,
                        "nonzero torsion class stays nonzero under i",
                        z=z, cycle=cert)

    # (b) diagonal 1: im i = ker R on shifted representatives
    for _ in range(ctx.trials // 2 + 1):
        z = ctx.random_cone_cocycle(rng)
        cb, _ = ctx.random_coboundary(rng)
        x = map_i(z) + cb
        run.require(x.curvature.is_zero(),
                    "kernel representative keeps zero curvature", x=x)
        pre = ConeCochain(cx, k - 1, -x.integral, x.potential)
        run.require(pre.is_cocycle() and map_i(pre) == x,
                    "kernel representative has an i preimage", x=x)

    # (b) diagonal 1: R surjectivity via curvature witnesses
    lattice_k, space_k = ctx.omega_gens_k
    targets = list(lattice_k) + list(space_k)
    targets += [ctx.random_omega(rng, k) for _ in range(ctx.trials)]
    for omega in targets:
        x = witness_R_surjective(omega, ctx.decomposer_k)
        run.require(map_R(x) == omega, "curvature witness re-verifies",
                    omega=omega)

    # (b) diagonal 2: the form node and the differential cocycle node
    _form_node_exactness(ctx, run, rng)
    _khat_node_exactness(ctx, run, rng)

    # (b) diagonal 2: I surjectivity (torsion classes included)
    for z in ctx.cocycle_basis_k:
        x = witness_I_surjective(z, Cochain.zero(cx, k, Ring.Q))
        run.require(map_I(x) == (z, Cochain.zero(cx, k, Ring.Q)),
                    "I witness hits the basis cocycle", target=z)
    for _ in range(ctx.trials):
        c = random_combination(rng, Cochain.zero(cx, k, Ring.Z),
                               ctx.cocycle_basis_k, ())
        t = random_cochain(rng, cx, k - 1, Ring.Q).coboundary()
        x = witness_I_surjective(c, t)
        run.require(map_I(x) == (c, t), "I witness hits the sampled pair",
                    c=c, t=t)

    # (c) induced squares and triangles on classes
    for _ in range(ctx.trials // 2 + 1):
        z = ctx.random_cone_cocycle(rng)
        y = ConeCochain(cx, k - 2,
                        random_cochain(rng, cx, k - 1, Ring.Z),
                        random_cochain(rng, cx, k - 2, Ring.Q))
        shifted = z + delta_cone(y)
        p0 = map_I(map_i(z))
        p1 = map_I(map_i(shifted))
        run.require(p0 == map_beta(z), "upper triangle holds exactly", z=z)
        run.require(p1[0] - p0[0] == y.integral.coboundary()
                    and p1[1] - p0[1] == (-y.integral.as_q()).coboundary(),
                    "upper triangle descends (difference is a coboundary pair)",
                    z=z, shift=y)
        # descent consistency for the remaining induced maps
        cb, _ = ctx.random_coboundary(rng)
        x, xprime = map_i(z), map_i(z) + cb
        run.require(map_R(x) == map_R(xprime),
                    "curvature is class-invariant", z=z)
        for cyc in ctx.cycles_km1:
            run.require(evaluate_character(x, cyc)
                        == evaluate_character(xprime, cyc),
                        "character is class-invariant", z=z, cycle=cyc)
    for _ in range(ctx.trials // 2 + 1):
        eta = ctx.random_closed(rng)
        etaA = ctx.random_omega(rng, k - 1)
        run.require(d_form(eta + etaA) == d_form(eta),
                    "lower triangle descends (d kills Omega_Z shifts)",
                    eta=eta)
        run.require(map_R(map_a(eta + etaA)) == d_form(eta + etaA),
                    "lower triangle holds exactly", eta=eta)
    for z in ctx.cone_space:
        v = z.rational
        lhs = map_a(derham_representative(v))
        rhs = map_i(z)
        run.require(lhs == rhs, "left square holds exactly", v=v)
        w = random_cochain(rng, cx, k - 2, Ring.Q)
        shifted = derham_representative(v + w.coboundary())
        mirror = DiffCochain(cx, k, k - 1, Cochain.zero(cx, k - 1, Ring.Z),
                             -w, None)
        run.require(map_a(shifted) == rhs + dhat(mirror),
                    "left square descends (shift is an explicit coboundary)",
                    v=v, shift=w)
    for _ in range(ctx.trials // 2 + 1):
        x = ctx.random_zhat(rng)
        c, t = map_I(x)
        run.require(map_ch(c, t) == map_der(map_R(x)),
                    "right square holds exactly", x=x)
    return run.report()


def check_bunke_schick(ctx):
    """The differential-extension axioms for ordinary cohomology: the
    curvature square commutes and the characteristic sequence is exact at
    the form node and the differential cocycle node."""
    run = CheckRun("bunke_schick")
    rng = ctx.rng("bunke_schick")
    cx, k = ctx.complex, ctx.degree

    # square: ch(I(x)) == der(R(x)) and both sides are class invariants
    for _ in range(ctx.trials):
        x = ctx.random_zhat(rng)
        c, t = map_I(x)
        lhs = map_ch(c, t)
        rhs = map_der(map_R(x))
        run.require(lhs == rhs, "curvature square commutes", x=x)
        cb, _ = ctx.random_coboundary(rng)
        c2, t2 = map_I(x + cb)
        run.require(map_ch(c2, t2) == lhs and map_R(x + cb) == map_R(x),
                    "curvature square is class-invariant", x=x)

    # sequence: classes of integral cocycles map onto the kernel of a
    st_km1 = cx.cohomology_structure(k - 1)
    for zvec in st_km1.cocycle_basis:
        u = Cochain(cx, k - 1, Ring.Z, list(zvec))
        eta = whitney(u.as_q())
        y = DiffCochain(cx, k, k - 1, -u, Cochain.zero(cx, k - 2, Ring.Q),
                        None)
        run.require(dhat(y) == map_a(eta),
                    "integral class image dies under a with dhat preimage",
                    u=u)
    _form_node_exactness(ctx, run, rng)
    _khat_node_exactness(ctx, run, rng)

    # I surjectivity, restated for the axiom sequence
    for z in ctx.cocycle_basis_k:
        x = witness_I_surjective(z, Cochain.zero(cx, k, Ring.Q))
        run.require(map_I(x)[0] == z, "I hits every integral cocycle class",
                    target=z)
    return run.report()


def check_off_diagonal_note(ctx):
    """Demonstration that the off-diagonal sequence fails to be exact at
    the cocycle level: the composite I after a does not vanish whenever a
    non-closed form exists in degree k-1."""
    run = CheckRun("off_diagonal")
    cx, k = ctx.complex, ctx.degree
    rank = cx.coboundary_factored(k - 1).rank
    counterexample = None
    for j in range(cx.n_simplices(k - 1)):
        eta = WhitneyForm.elementary(cx, k - 1, j)
        c, t = map_I(map_a(eta))
        if not (c.is_zero() and t.is_zero()):
            counterexample = (eta, t)
            break
    if counterexample is None:
        report = run.report(status_when_ok=NO_COUNTEREXAMPLE)
        report.counterexample = {
            "check": "no non-closed basis form at this degree",
            "coboundary_rank": str(rank),
        }
        return report
    eta, t = counterexample
    run.witness()
    report = run.report(status_when_ok=NOT_EXACT_CONFIRMED)
    report.counterexample = {
        "check": "I(a(eta)) != 0, so the off-diagonal composite is nonzero",
        "eta": str(eta),
        "I_a_eta_second_slot": str(t),
        "coboundary_rank": str(rank),
    }
    return report


def check_dhat_square(ctx):
    """dhat o dhat == 0 in all three degree regimes at level k."""
    run = CheckRun("dhat_square_zero")
    rng = ctx.rng("dhat_square_zero")
    cx, q = ctx.complex, ctx.degree
    for deg in (q - 2, q - 1, q):
        elems = []
        for i in range(cx.n_simplices(deg)):
            elems.append(DiffCochain(
                cx, q, deg, Cochain.basis(cx, deg, Ring.Z, i),
                Cochain.zero(cx, deg - 1, Ring.Q),
                WhitneyForm.zero(cx, deg) if deg >= q else None))
        for j in range(cx.n_simplices(deg - 1)):
            elems.append(DiffCochain(
                cx, q, deg, Cochain.zero(cx, deg, Ring.Z),
                Cochain.basis(cx, deg - 1, Ring.Q, j),
                WhitneyForm.zero(cx, deg) if deg >= q else None))
        if deg >= q:
            for j in range(cx.n_simplices(deg)):
                elems.append(DiffCochain(
                    cx, q, deg, Cochain.zero(cx, deg, Ring.Z),
                    Cochain.zero(cx, deg - 1, Ring.Q),
                    WhitneyForm.elementary(cx, deg, j)))
        elems += [random_diff_cochain(rng, cx, q, deg)
                  for _ in range(ctx.trials)]
        for x in elems:
            run.require(dhat(dhat(x)).is_zero(), "dhat(dhat(x)) == 0",
                        degree=deg, x=x)
    return run.report()


def check_cone_square(ctx):
    """delta_cone o delta_cone == 0 around the hexagon degrees."""
    run = CheckRun("delta_cone_square_zero")
    rng = ctx.rng("delta_cone_square_zero")
    cx, k = ctx.complex, ctx.degree
    for deg in (k - 2, k - 1, k):
        elems = []
        for i in range(cx.n_simplices(deg + 1)):
            elems.append(ConeCochain(cx, deg,
                                     Cochain.basis(cx, deg + 1, Ring.Z, i),
                                     Cochain.zero(cx, deg, Ring.Q)))
        for j in range(cx.n_simplices(deg)):
            elems.append(ConeCochain(cx, deg,
                                     Cochain.zero(cx, deg + 1, Ring.Z),
                                     Cochain.basis(cx, deg, Ring.Q, j)))
        elems += [ConeCochain(cx, deg,
                              random_cochain(rng, cx, deg + 1, Ring.Z),
                              random_cochain(rng, cx, deg, Ring.Q))
                  for _ in range(ctx.trials)]
        for z in elems:
            run.require(delta_cone(delta_cone(z)).is_zero(),
                        "delta_cone(delta_cone(z)) == 0", degree=deg, z=z)
    return run.report()


def check_derham_whitney(ctx):
    """The de Rham and Whitney identities, plus vanishing torsion periods."""
    run = CheckRun("derham_whitney")
    rng = ctx.rng("derham_whitney")
    cx = ctx.complex
    for deg in range(0, cx.dim + 1):
        samples = [Cochain.basis(cx, deg, Ring.Q, i)
                   for i in range(cx.n_simplices(deg))]
        samples += [random_cochain(rng, cx, deg, Ring.Q)
                    for _ in range(ctx.trials // 2 + 1)]
        for x in samples:
            w = whitney(x)
            run.require(derham_cochain(w) == x, "int(W(x)) == x",
                        degree=deg, x=x)
            run.require(d_form(w) == whitney(x.coboundary()),
                        "d(W(x)) == W(delta x)", degree=deg, x=x)
            run.require(derham_cochain(d_form(w))
                        == derham_cochain(w).coboundary(),
                        "delta(int(w)) == int(d w)", degree=deg, x=x)
    for deg in range(0, cx.dim + 1):
        hst = cx.homology_structure(deg)
        if not hst.torsion_cycles:
            continue
        st = cx.cohomology_structure(deg)
        for tor in hst.torsion_cycles:
            cycle = Chain(cx, deg, list(tor.cycle))
            for zvec in st.cocycle_basis:
                w = whitney(Cochain(cx, deg, Ring.Q, list(zvec)))
                run.require(integrate(w, cycle) == 0,
                            "closed-form period over a torsion cycle vanishes",
                            degree=deg, cycle=cycle)
    return run.report()


def check_character_compat(ctx):
    """Characters: the defining relation T(boundary b) == int_b(omega) mod
    Z, vanishing on coboundaries, and additivity."""
    run = CheckRun("character_compatibility")
    rng = ctx.rng("character_compatibility")
    cx, k = ctx.complex, ctx.degree
    cycles = ctx.cycles_km1
    for _ in range(ctx.trials):
        x = ctx.random_zhat(rng)
        b = random_chain(rng, cx, k)
        val = x.potential.evaluate(b.boundary())
        ref = integrate(x.curvature, b)
        run.require((val - ref).denominator == 1,
                    "T(boundary b) == int_b omega mod Z", x=x, chain=b,
                    difference=val - ref)
        for cyc in cycles:
            x2 = ctx.random_zhat(rng)
            lhs = evaluate_character(x + x2, cyc)
            rhs = evaluate_character(x, cyc) + evaluate_character(x2, cyc)
            run.require((lhs - rhs).denominator == 1,
                        "character is additive", cycle=cyc)
        cb, _ = ctx.random_coboundary(rng)
        for cyc in cycles:
            run.require(evaluate_character(cb, cyc) == 0,
                        "characters of coboundaries vanish on cycles",
                        cycle=cyc)
    return run.report()


def check_validate(ctx):
    run = CheckRun("validate")
    violations = validate(ctx.complex)
    run.require(not violations, "complex satisfies all structural invariants",
                violations=violations)
    return run.report()


def run_all_checks(ctx):
    """Every check for one (complex, degree), sorted by check name.

    A check that raises ValueError or ArithmeticError becomes a FAIL
    report under its own name, carrying the exception, and the other
    checks still run."""
    checks = (
        ("validate", check_validate),
        ("dhat_square_zero", check_dhat_square),
        ("delta_cone_square_zero", check_cone_square),
        ("derham_whitney", check_derham_whitney),
        ("character_compatibility", check_character_compat),
        ("faces", check_faces),
        ("main_diagonal", check_main_diagonal),
        ("induced_hexagon", check_induced_hexagon),
        ("bunke_schick", check_bunke_schick),
        ("off_diagonal", check_off_diagonal_note),
        ("cone_comparison", cone_cohomology_compare),
        ("les_exactness", les_exactness),
    )
    reports = []
    for name, check in checks:
        try:
            reports.append(check(ctx))
        except (ValueError, ArithmeticError) as exc:
            reports.append(CheckReport(name, FAIL, 0, {
                "check": "check raised an exception",
                "error_type": type(exc).__name__,
                "error": str(exc),
            }))
    return sorted(reports, key=lambda r: r.name)
