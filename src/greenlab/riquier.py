"""Two-point boundary problems for the coupled pair on subintervals, and
the local theory of the two operators they rest on.

A regular subinterval carries a triple of boundary measures (mu_x, nu_x,
lambda_x): the first component of the solution pairs boundary data (f, g)
as <f, mu_x> + <g, nu_x>, the second as <g, lambda_x>.  mu_x and lambda_x
are interpolation weights of the two bases.  The nu_x masses integrate the
localized kernel K_omega (the global G1 minus its harmonic interpolant)
against the second basis' cardinal functions with the model's kink density
w, the normalization under which K_omega inverts the first operator; the
masses at any number of points are the rows of one quadrature call.  The
first component of the Riquier solution is that pairing itself.

A :class:`RegularSubdomain` carries the one model object it was
validated for, and every function here reads the model from it; a call on
subdomains of two model objects is refused.  The measures depend on that
model, the subinterval and x, never on the data, so the subdomain holds
every mass row computed on it, by point: the triples and every solution on
one subdomain integrate a point once.  A solution's u and v refuse points
off [a, b].  A model without a kink density has no Riquier problem.  The
adjoint (transposed) triple is the triple on
``regular_subdomain(model.adjoint, a, b)``; the adjoint space has a kink
density only where it is the model itself (the clamped plate), so there
it equals the forward triple.

The bases and stencils of the two operators live here too: cardinal
combinations and local fits of a two-function basis, and the
finite-difference residual of a :class:`~greenlab.kernels.StencilSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (DomainError, ModelDomainError, PreconditionError,
                     RegularityError, StencilError)
from .kernels import BiharmonicPair, Fn, Interval1D, ModelSpace, StencilSpec
from .quadrature import as_vectorized, integrate
from .values import FD_TOL, IDENTITY_TOL

COND_LIMIT = 1e10
# the tolerance of each nu mass: tight, so that finite-difference
# residual checks on a Riquier solution are not washed out by node noise
NU_TOL = 1e-10


def _interp_matrix(basis, a: float, b: float) -> np.ndarray:
    b1, b2 = basis
    # a basis singular at a or b is refused below, not warned about
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m = np.array([[float(b1(a)), float(b2(a))],
                      [float(b1(b)), float(b2(b))]], dtype=float)
    if not np.all(np.isfinite(m)):
        raise RegularityError(
            f"a basis function is singular on [{a:g}, {b:g}]")
    return m


def basis_combination(coef: np.ndarray, basis, j, x):
    """coef[0, j] basis[0](x) + coef[1, j] basis[1](x), the column j
    combination of a two-function basis.

    With coef the inverse of the basis' interpolation matrix on [a, b],
    column j = 0 (1) gives the cardinal that is 1 at a (b) and 0 at the
    other end.  j may be an int array of x's shape.  The sum is
    elementwise, so a point's value does not depend on the array it is
    evaluated in.
    """
    x = np.asarray(x, dtype=float)
    return (coef[0, j] * np.asarray(basis[0](x), dtype=float)
            + coef[1, j] * np.asarray(basis[1](x), dtype=float))


def basis_fit_residual(basis: Sequence[Callable[[float], float]],
                       v: Callable[[float], float], x: float) -> float:
    """Deviation of v at x from the two-point basis interpolant through x±0.02.

    Vanishes (to roundoff) exactly when v is locally in the span of the basis,
    which is the operator-free way to test harmonicity of a closed form.  A
    basis singular at x - 0.02 or x + 0.02 is refused with
    :class:`~greenlab.errors.RegularityError`.
    """
    lo, hi = x - 0.02, x + 0.02
    rhs = np.array([float(v(lo)), float(v(hi))], dtype=float)
    coef = np.linalg.solve(_interp_matrix(basis, lo, hi), rhs)
    return float(v(x)) - float(basis_combination(coef[:, None], basis, 0, x))


@dataclass(frozen=True, eq=False)
class RegularSubdomain:
    """A subinterval on which both bases of ``model`` interpolate stably.

    ``inv1`` and ``inv2`` invert the two interpolation matrices at (a, b).
    ``mass_rows`` holds the (mu, nu, lambda) masses that :func:`_masses`
    has computed here, by point; ``dataclasses.replace`` starts it empty.
    """
    model: ModelSpace
    a: float
    b: float
    condition_number: float
    inv1: np.ndarray
    inv2: np.ndarray
    mass_rows: dict = field(init=False, repr=False, default_factory=dict)

    def require_interior(self, x: float) -> float:
        x = float(x)
        if not (self.a < x < self.b):
            raise PreconditionError(
                f"{x:g} is not interior to [{self.a:g}, {self.b:g}]")
        return x

    def require_closed(self, x) -> np.ndarray:
        """x as a float array, refused unless every point lies in [a, b]."""
        xs = np.asarray(x, dtype=float)
        # a loop over Python floats: a solution is read a few points at a
        # time, where numpy's fixed cost per call would dominate
        for t in xs.ravel().tolist():
            if not self.a <= t <= self.b:
                raise DomainError(f"{t:g} lies outside the subdomain "
                                  f"[{self.a:g}, {self.b:g}]")
        return xs

    def interpolant1(self, fa: float, fb: float) -> Fn:
        return _interpolant(self.inv1, self.model.basis1, fa, fb, "interp1")

    def interpolant2(self, ga: float, gb: float) -> Fn:
        return _interpolant(self.inv2, self.model.basis2, ga, gb, "interp2")


def _interpolant(inv: np.ndarray, basis, fa: float, fb: float,
                 name: str) -> Fn:
    coef = (inv @ np.array([fa, fb], dtype=float))[:, None]
    return Fn(lambda x: basis_combination(coef, basis, 0, x),
              vectorized=True, name=name)


def regular_subdomain(model: ModelSpace, a: float, b: float) -> RegularSubdomain:
    """Validate [a, b] as a regular subinterval of the model's domain.

    Regularity here is concrete: the interval sits inside the domain (its
    closure, for models whose kernels and bases extend continuously to the
    boundary), and both interpolation matrices are invertible with condition
    number below COND_LIMIT.  A radial model, and a model with no kink
    density (the adjoint of one whose kernels differ), is refused with
    :class:`~greenlab.errors.ModelDomainError` before any work.
    """
    if model.is_radial:
        raise ModelDomainError("subinterval problems are defined on 1D models")
    if model.kink_density is None:
        raise ModelDomainError(
            f"model {model.id} has no kink density, so no Riquier problem")
    dom: Interval1D = model.domain
    a, b = float(a), float(b)
    if not a < b:
        raise PreconditionError(f"empty subinterval [{a:g}, {b:g}]")
    if model.subdomain_closure_ok:
        ok, (lo_b, hi_b) = dom.lo <= a and b <= dom.hi, "[]"
    else:
        ok, (lo_b, hi_b) = dom.lo < a and b < dom.hi, "()"
    if not ok:
        raise PreconditionError(
            f"[{a:g}, {b:g}] does not sit inside "
            f"{lo_b}{dom.lo:g}, {dom.hi:g}{hi_b}")
    m1 = _interp_matrix(model.basis1, a, b)
    m2 = _interp_matrix(model.basis2, a, b)
    cond = max(float(np.linalg.cond(m1)), float(np.linalg.cond(m2)))
    if not math.isfinite(cond) or cond > COND_LIMIT:
        raise RegularityError(
            f"interpolation on [{a:g}, {b:g}] has condition number {cond:.2e}; "
            "the subdomain is numerically non-regular")
    return RegularSubdomain(model, a, b, cond, np.linalg.inv(m1),
                            np.linalg.inv(m2))


@dataclass(frozen=True)
class MeasureTriple:
    """Boundary measures (mu_x, nu_x, lambda_x) as masses at (a, b)."""
    omega: tuple[float, float]
    x: float
    mu: tuple[float, float]
    nu: tuple[float, float]
    lam: tuple[float, float]

    def pair_first(self, f: Sequence[float], g: Sequence[float]) -> float:
        return (_mass_value(self.mu[0], f[0]) + _mass_value(self.mu[1], f[1])
                + self.pair_coupling(g))

    def pair_coupling(self, g: Sequence[float]) -> float:
        return _mass_value(self.nu[0], g[0]) + _mass_value(self.nu[1], g[1])

    def pair_second(self, g: Sequence[float]) -> float:
        return _mass_value(self.lam[0], g[0]) + _mass_value(self.lam[1], g[1])


def _mass_value(mass: float, value: float) -> float:
    # a zero mass annihilates even an infinite boundary value
    if mass == 0.0:
        return 0.0
    return mass * value


def _clip_weight(w: float, what: str) -> float:
    if w < -1e-10:
        raise RegularityError(f"negative {what}-mass {w:.3e}")
    return max(w, 0.0)


def _masses(subs: Sequence[RegularSubdomain], xs) -> np.ndarray:
    """The masses (mu, nu, lambda) at each point xs[i] of its subdomain
    subs[i], as a (len(xs), 3, 2) array of (mass at a, mass at b).  The
    subdomains share one model, read from ``subs[0].model``.

    mu and lambda are the cardinals at x of the first and second basis, so
    interp1(data)(x) = mu_a f(a) + mu_b f(b), clipped at 0; a cardinal
    below -1e-10 is refused with RegularityError, point by point, before
    any nu row is integrated.  nu_j(x) = int_a^b
    K_omega(x, z) c_j(z) w(z) dz, where K_omega(x, .) = G1(x, .) - mu_a
    G1(a, .) - mu_b G1(b, .) is the global kernel swept clean on the
    boundary of [a, b], c_j the second basis' cardinal at a (j = 0) or b
    (j = 1), and w the kink density.  K_omega and c_j are nonnegative on
    [a, b], so every row is.  Points not interior to their subdomain get
    zero masses.

    A subdomain's held rows (``mass_rows``) are read, not recomputed.  The
    (point, j) integrals of every other interior point, each distinct
    (subdomain, point) once, are the rows of one integrate call, and their
    masses join the held rows.  Each row's integrand is elementwise in its
    own a, b and cardinal coefficients, so a row has the bits of a
    one-point call, whichever call computed it.
    """
    xs = np.asarray(xs, dtype=float).tolist()
    # the rows to compute, by (subdomain, point), in order of appearance
    new = list(dict.fromkeys(
        (sub, x) for x, sub in zip(xs, subs)
        if sub.a < x < sub.b and x not in sub.mass_rows))
    if new:
        model = subs[0].model
        raw = model.G1.raw
        pts, pa, pb = np.array([(x, sub.a, sub.b) for sub, x in new],
                               dtype=float).T
        # basis_combination coefficients of the first basis, then of the
        # second: column r = 2i + j holds those of point i's cardinal that
        # is 1 at a (j = 0) or at b (j = 1), and row r of the nu integrals
        # uses coef2's
        invs = np.array([(sub.inv1, sub.inv2) for sub, _ in new], dtype=float)
        coef1, coef2 = invs.transpose(1, 2, 0, 3).reshape(2, 2, -1)
        rows, at = np.arange(2 * len(pts)), pts.repeat(2)
        mu = basis_combination(coef1, model.basis1, rows, at)
        lam = basis_combination(coef2, model.basis2, rows, at)
        ka, kb = mu[0::2], mu[1::2]
        cardinals = [([_clip_weight(w, "mu") for w in m],
                      [_clip_weight(w, "lambda") for w in lm])
                     for m, lm in zip(mu.reshape(-1, 2).tolist(),
                                      lam.reshape(-1, 2).tolist())]

        def row(r, z):
            i = r // 2
            kx = raw(pts[i], z) - ka[i] * raw(pa[i], z) - kb[i] * raw(pb[i], z)
            return (kx * basis_combination(coef2, model.basis2, r, z)
                    * model.kink_density(z))

        # row r = 2i + j on [a, b], cut at x
        nus = integrate(row, rows=(2 * len(pts),
                                   [pa.repeat(2), at, pb.repeat(2)], {}),
                        tol=NU_TOL).value
        for (sub, x), (m, lm), nu in zip(new, cardinals,
                                         nus.reshape(-1, 2).tolist()):
            sub.mass_rows[x] = np.array([m, nu, lm])
    zero = np.zeros((3, 2))
    return np.array([sub.mass_rows.get(x, zero) for x, sub in zip(xs, subs)],
                    dtype=float).reshape(-1, 3, 2)


def biharmonic_measures(sub, x):
    """The measure triple of the subdomain ``sub`` at interior x, in the
    model the subdomain was built for.

    mu_x and lambda_x are the interpolation weights of the two bases; the
    nu_x masses integrate the localized kernel against the second basis'
    cardinal functions, weighted by the kink density, each at ``NU_TOL``.
    The triple of the transposed problem is the triple on a subdomain of
    ``model.adjoint``.

    ``sub`` and ``x`` may also be sequences of subdomains and points, of
    one length: the call then returns a list of triples, one per
    (subdomain, point), each with the bits a one-point call gives it.  The
    subdomains must belong to one model object.  Every subdomain and point
    is checked, and then every cardinal, before any integration; the
    masses of all the points are one :func:`_masses` call.
    """
    one = isinstance(sub, RegularSubdomain)
    subs, xs = ([sub], [x]) if one else (list(sub), list(x))
    if len(subs) != len(xs):
        raise PreconditionError(
            f"{len(subs)} subdomains do not pair with {len(xs)} points")
    for s in subs:
        if s.model is not subs[0].model:
            raise PreconditionError(
                f"subdomains of two model objects, {subs[0].model.id} and "
                f"{s.model.id}, in one call")
    xs = [s.require_interior(x) for s, x in zip(subs, xs)]
    triples = []
    # the nu rows need no clip: integrate reads a row's small negative
    # total as 0 and refuses a larger one
    for sub, x, (mu, nu, lam) in zip(subs, xs, _masses(subs, xs).tolist()):
        triples.append(MeasureTriple((sub.a, sub.b), x, tuple(mu), tuple(nu),
                                     tuple(lam)))
    return triples[0] if one else triples


@dataclass(frozen=True)
class RiquierSolution:
    """The pair (u, v) matching boundary data (f, g) on a subdomain."""
    sub: RegularSubdomain
    f: tuple[float, float]
    g: tuple[float, float]
    u: Callable
    v: Callable


def solve_riquier(sub: RegularSubdomain, f: Sequence[float],
                  g: Sequence[float]) -> RiquierSolution:
    """Solve the two-component boundary problem on the subdomain [a, b], in
    the model it was built for.

    v is the second-basis interpolant of g.  u is the measure pairing
    h1(x) + g_a nu_a(x) + g_b nu_b(x), h1 the first-basis interpolant of f:
    its particular part is int K_omega(x, z) v(z) w(z) dz written through
    the nonnegative nu masses, so signed data need no signed quadrature.
    u takes a point or an array of points.  It reads the masses that
    ``sub`` holds and computes the others in one quadrature call at
    ``NU_TOL``, kept tight so that finite-difference residual checks on u
    are not washed out by node noise; a point's value does not depend on
    the array it is in, nor on what ``sub`` held.  u and v refuse a point
    off [a, b] with a :class:`~greenlab.errors.DomainError`.
    """
    fa, fb = float(f[0]), float(f[1])
    ga, gb = float(g[0]), float(g[1])
    for val in (fa, fb, ga, gb):
        if not math.isfinite(val):
            raise PreconditionError("boundary data must be finite")
    v2 = sub.interpolant2(ga, gb)
    h1 = sub.interpolant1(fa, fb)
    a, b = sub.a, sub.b

    def u(x):
        xs = sub.require_closed(x)
        nu = _masses([sub] * xs.size, xs.ravel())[:, 1]
        # elementwise, not nu @ (ga, gb), so the bits match across arrays
        out = np.asarray(h1(xs), dtype=float) + \
            (ga * nu[:, 0] + gb * nu[:, 1]).reshape(xs.shape)
        return float(out) if xs.ndim == 0 else out

    def v(x):
        return v2(sub.require_closed(x))

    return RiquierSolution(sub, (fa, fb), (ga, gb),
                           Fn(u, breakpoints=(a, b), vectorized=True,
                              name="riquier-u"),
                           Fn(v, vectorized=True, name="riquier-v"))


def _weights(stencil: StencilSpec, xs: np.ndarray) -> np.ndarray | float:
    """The stencil's weight at the points of xs; 1.0 for the constant 1."""
    if stencil.weight is None:
        return 1.0
    return np.asarray(as_vectorized(stencil.weight)(xs.ravel()),
                      dtype=float).reshape(xs.shape)


def fd_residual(stencil: StencilSpec, u: Callable, x, h: float):
    """Central-difference evaluation of ``stencil`` applied to u at x.

    x is a point or a 1-D array of points; the result is a float or an
    array of x's shape.  u is evaluated once, through :func:`as_vectorized`,
    on the window nodes of every x: x - h, x, x + h, then x - h/2 and
    x + h/2 for the Richardson step, so a vectorized u must be elementwise.
    Each x gets the bits of its own scalar evaluation.  A non-finite sample
    (in the product form, of the weight times u) raises
    :class:`StencilError` naming the first x, in order, whose window holds
    one.

    One Richardson step (h and h/2) upgrades the O(h^2) truncation to O(h^4).
    """
    pts = np.asarray(x, dtype=float)
    xs = pts.reshape(-1)
    # columns: x - h, x, x + h, then x - h/2, x + h/2
    nodes = np.stack([xs - h, xs, xs + h, xs - 0.5 * h, xs + 0.5 * h],
                     axis=1)
    vals = np.asarray(as_vectorized(u)(nodes.ravel()), dtype=float) \
        .reshape(nodes.shape)
    product = stencil.form == "product_second"
    if product:
        with np.errstate(invalid="ignore"):     # 0 * inf is refused below
            vals = _weights(stencil, nodes) * vals
    bad = ~np.isfinite(vals).all(axis=1)
    if bad.any():
        raise StencilError("non-finite sample in stencil window at "
                           f"{xs.tolist()[int(np.argmax(bad))]!r}")
    diffs = []
    for s, (left, right) in ((h, (0, 2)), (0.5 * h, (3, 4))):
        um, u0, up = vals[:, left], vals[:, 1], vals[:, right]
        if product:
            diffs.append((um - 2.0 * u0 + up) / (s * s))
        else:
            wm = _weights(stencil, xs - 0.5 * s)
            wp = _weights(stencil, xs + 0.5 * s)
            diffs.append((wp * (up - u0) - wm * (u0 - um))
                         / (s * s * _weights(stencil, xs)))
    d = (4.0 * diffs[1] - diffs[0]) / 3.0
    return float(d[0]) if pts.ndim == 0 else d.reshape(pts.shape)


def _values(fn: Callable, xs) -> np.ndarray:
    """fn at the 1-D points xs in one call, through as_vectorized."""
    return np.asarray(as_vectorized(fn)(np.asarray(xs, dtype=float)),
                      dtype=float)


@dataclass(frozen=True)
class SolutionResiduals:
    boundary_gap: float
    l1_residual: float
    l2_residual: float

    def passed(self) -> bool:
        return (self.boundary_gap <= 1e-9
                and self.l1_residual <= FD_TOL
                and self.l2_residual <= FD_TOL)


def check_riquier_solution(sol: RiquierSolution) -> SolutionResiduals:
    """Residuals certifying a solution: boundary match and both operator ODEs.

    Both ODEs are read at five probes spread across the subinterval.  The
    u-residual stencil runs at a coarse step because u is
    quadrature-backed: the step must stay well above the node noise floor.
    Each stencil reads its function on the windows of every probe in one
    call.
    """
    model, a, b = sol.sub.model, sol.sub.a, sol.sub.b
    va, vb = _values(sol.v, [a, b]).tolist()
    ua, ub = _values(sol.u, [a, b]).tolist()
    boundary_gap = max(abs(va - sol.g[0]), abs(vb - sol.g[1]),
                       abs(ua - sol.f[0]), abs(ub - sol.f[1]))
    h = 1e-2
    pad = 2.5 * h
    xs = np.array([float(min(max(x, a + pad), b - pad))
                   for x in np.linspace(a, b, 7)[1:-1]])
    r1s = fd_residual(model.L1_stencil, sol.u, xs, h=h) + _values(sol.v, xs)
    r2s = fd_residual(model.L2_stencil, sol.v, xs, h=1e-4)
    l1 = 0.0
    l2 = 0.0
    for r1, r2 in zip(r1s.tolist(), r2s.tolist()):
        l1 = max(l1, abs(r1))
        l2 = max(l2, abs(r2))
    return SolutionResiduals(boundary_gap, l1, l2)


@dataclass(frozen=True)
class ProbeMargin:
    omega: tuple[float, float]
    x: float
    margin_first: float
    margin_second: float
    coupling: float


@dataclass(frozen=True)
class HyperharmonicReport:
    entries: tuple[ProbeMargin, ...]

    @property
    def violated(self) -> tuple[ProbeMargin, ...]:
        """The entries with a margin not >= -IDENTITY_TOL, NaN included."""
        return tuple(e for e in self.entries
                     if not (e.margin_first >= -IDENTITY_TOL
                             and e.margin_second >= -IDENTITY_TOL))

    @property
    def passed(self) -> bool:
        return not self.violated

    @property
    def max_abs_margin(self) -> float:
        return max((max(abs(e.margin_first), abs(e.margin_second))
                    for e in self.entries), default=0.0)

    @property
    def max_coupling(self) -> float:
        return max((abs(e.coupling) for e in self.entries), default=0.0)


def _safe_margin(center: float, swept: float) -> float:
    if math.isinf(swept):
        return math.inf if math.isinf(center) else -math.inf
    if math.isinf(center):
        return math.inf
    return center - swept


def verify_hyperharmonic(model: ModelSpace, pair: BiharmonicPair,
                         probes) -> HyperharmonicReport:
    """Test the two defining inequalities of the pair at (omega, x) probes.

    Each probe compares u(x) with <u, mu_x> + <v, nu_x> and v(x) with
    <v, lambda_x>; margins are center minus swept value, so hyperharmonic
    means every margin >= -IDENTITY_TOL.  u and v are each evaluated once, through
    :func:`~greenlab.quadrature.as_vectorized`, at the a, b and x of every
    probe, after the triples of all probes.
    """
    probes = [((a, b), x) for (a, b), x in probes]
    subs = {}
    for omega, _ in probes:
        if omega not in subs:
            subs[omega] = regular_subdomain(model, *omega)
    triples = biharmonic_measures([subs[omega] for omega, _ in probes],
                                  [x for _, x in probes])
    pts = [p for (a, b), x in probes for p in (a, b, x)]
    us = _values(pair.u, pts).reshape(-1, 3)
    vs = _values(pair.v, pts).reshape(-1, 3)
    entries = []
    for ((a, b), x), triple, (ua, ub, ux), (va, vb, vx) in zip(
            probes, triples, us.tolist(), vs.tolist()):
        coupling = triple.pair_coupling((va, vb))
        swept1 = triple.pair_first((ua, ub), (va, vb))
        swept2 = triple.pair_second((va, vb))
        m1 = _safe_margin(ux, swept1)
        m2 = _safe_margin(vx, swept2)
        entries.append(ProbeMargin((a, b), float(x), m1, m2, float(coupling)))
    return HyperharmonicReport(tuple(entries))
