"""Two-point boundary problems for the coupled pair on subintervals.

A regular subinterval carries a triple of boundary measures (mu_x, nu_x,
lambda_x): the first component of the solution pairs boundary data (f, g)
as <f, mu_x> + <g, nu_x>, the second as <g, lambda_x>.  mu_x and lambda_x
are interpolation weights of the two bases.  The nu_x masses integrate the
localized kernel K_omega (the global G1 minus its harmonic interpolant)
against the second basis' cardinal functions with the model's kink density
w, the normalization under which K_omega inverts the first operator; the
masses at any number of points are the rows of one quadrature call.  The
first component of the Riquier solution is that pairing itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ModelDomainError, PreconditionError, RegularityError
from .kernels import BiharmonicPair, Fn, Interval1D, ModelSpace
from .quadrature import as_vectorized, fd_residual, integrate
from .values import FD_TOL, IDENTITY_TOL

COND_LIMIT = 1e10
# the tolerance of each nu mass: tight, so that finite-difference
# residual checks on a Riquier solution are not washed out by node noise
NU_TOL = 1e-10


def _interp_matrix(basis, a: float, b: float) -> np.ndarray:
    b1, b2 = basis
    m = np.array([[float(b1(a)), float(b2(a))],
                  [float(b1(b)), float(b2(b))]], dtype=float)
    if not np.all(np.isfinite(m)):
        raise RegularityError(
            f"a basis function is singular on [{a:g}, {b:g}]")
    return m


def _cardinal(inv: np.ndarray, basis, j, x):
    """The cardinal of the basis that is 1 at a (j = 0) or at b (j = 1).

    inv is the inverse interpolation matrix, or any (2, m) table whose
    column j holds the two coefficients of a combination of the basis.  j
    may be an int array of x's shape.  The sum is elementwise, so a point's
    weight does not depend on the array it is evaluated in.
    """
    x = np.asarray(x, dtype=float)
    return (inv[0, j] * np.asarray(basis[0](x), dtype=float)
            + inv[1, j] * np.asarray(basis[1](x), dtype=float))


@dataclass(frozen=True, eq=False)
class RegularSubdomain:
    """A subinterval on which both two-function bases interpolate stably."""
    model_id: str
    a: float
    b: float
    condition_number: float
    basis1: tuple
    basis2: tuple
    inv1: np.ndarray
    inv2: np.ndarray

    def require_interior(self, x: float) -> float:
        x = float(x)
        if not (self.a < x < self.b):
            raise PreconditionError(
                f"{x:g} is not interior to [{self.a:g}, {self.b:g}]")
        return x

    def _cardinals(self, inv: np.ndarray, basis, x):
        return _cardinal(inv, basis, 0, x), _cardinal(inv, basis, 1, x)

    def cardinals1(self, x):
        """Weights (w_a, w_b) with interp1(data)(x) = w_a f(a) + w_b f(b)."""
        return self._cardinals(self.inv1, self.basis1, x)

    def cardinals2(self, x):
        return self._cardinals(self.inv2, self.basis2, x)

    def _interpolant(self, inv: np.ndarray, basis, fa: float, fb: float,
                     name: str) -> Fn:
        coef = inv @ np.array([fa, fb], dtype=float)
        b1, b2 = basis
        return Fn(lambda x: coef[0] * np.asarray(b1(x), dtype=float)
                  + coef[1] * np.asarray(b2(x), dtype=float),
                  vectorized=True, name=name)

    def interpolant1(self, fa: float, fb: float) -> Fn:
        return self._interpolant(self.inv1, self.basis1, fa, fb, "interp1")

    def interpolant2(self, ga: float, gb: float) -> Fn:
        return self._interpolant(self.inv2, self.basis2, ga, gb, "interp2")


def regular_subdomain(model: ModelSpace, a: float, b: float) -> RegularSubdomain:
    """Validate [a, b] as a regular subinterval of the model's domain.

    Regularity here is concrete: the interval sits inside the domain (its
    closure, for models whose kernels and bases extend continuously to the
    boundary), and both interpolation matrices are invertible with condition
    number below COND_LIMIT.
    """
    if model.is_radial:
        raise ModelDomainError("subinterval problems are defined on 1D models")
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
    return RegularSubdomain(model.id, a, b, cond, model.basis1, model.basis2,
                            np.linalg.inv(m1), np.linalg.inv(m2))


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


def _nu_masses(model: ModelSpace, subs: Sequence[RegularSubdomain], xs,
               adjoint: bool) -> np.ndarray:
    """(nu_a, nu_b) at each point xs[i] of its subdomain subs[i], as a
    (len(xs), 2) array.

    nu_j(x) = int_a^b K_omega(x, z) c_j(z) w(z) dz, where K_omega(x, .) =
    G1(x, .) - c1_a(x) G1(a, .) - c1_b(x) G1(b, .) is the global kernel
    swept clean on the boundary of [a, b], c1 the first basis' cardinals,
    c_j the second basis' cardinal at a (j = 0) or b (j = 1), and w the kink
    density.  The (point, j) integrals of every point, whatever its
    subdomain, are the rows of one integrate call, and each row's integrand
    is elementwise in its own a, b and cardinal coefficients, so a row has
    the bits of a one-point call.  K_omega and c_j are nonnegative on
    [a, b], so every row is.  With ``adjoint`` the kernel is the transposed
    G2 and the two bases swap.  Points not interior to their subdomain get
    zero masses.
    """
    if adjoint:
        raw = lambda x, z: model.G2.raw(z, x)
        k_basis, c_basis = model.basis2, model.basis1
    else:
        raw = model.G1.raw
        k_basis, c_basis = model.basis1, model.basis2
    xs = np.asarray(xs, dtype=float)
    picks = [(i, x, sub) for i, (x, sub) in enumerate(zip(xs.tolist(), subs))
             if sub.a < x < sub.b]
    pts, pa, pb = np.array([(x, sub.a, sub.b) for _, x, sub in picks],
                           dtype=float).reshape(-1, 3).T
    # each inner point's inverse interpolation matrices, kernel basis first
    invs = np.array([(sub.inv2, sub.inv1) if adjoint else (sub.inv1, sub.inv2)
                     for _, _, sub in picks], dtype=float).reshape(-1, 2, 2, 2)
    # _cardinal coefficients: column i holds point i's, and column r = 2i + j
    # those of row (i, j)
    idx = np.arange(len(picks))
    ka = _cardinal(invs[:, 0, :, 0].T, k_basis, idx, pts)
    kb = _cardinal(invs[:, 0, :, 1].T, k_basis, idx, pts)
    c_coef = invs[:, 1].transpose(1, 0, 2).reshape(2, -1)

    def row(r, z):
        i = r // 2
        kx = raw(pts[i], z) - ka[i] * raw(pa[i], z) - kb[i] * raw(pb[i], z)
        return kx * _cardinal(c_coef, c_basis, r, z) * model.kink_density(z)

    rows = [(2 * i + j, (sub.a, sub.b), (), (x,))
            for i, (_, x, sub) in enumerate(picks) for j in (0, 1)]
    masses = [float(res.value) for res in integrate(row, rows=rows,
                                                    tol=NU_TOL)]
    nu = np.zeros((len(xs), 2))
    nu[[i for i, _, _ in picks]] = np.reshape(masses, (-1, 2))
    return nu


def biharmonic_measures(model: ModelSpace, sub: RegularSubdomain, x: float,
                        adjoint: bool = False) -> MeasureTriple:
    """The measure triple of [a, b] at interior x.

    mu_x and lambda_x are the interpolation weights of the two bases; the
    nu_x masses integrate the localized kernel against the second basis'
    cardinal functions, weighted by the kink density, each at ``NU_TOL``.
    With ``adjoint=True`` the roles of the two kernels and bases swap (the
    transposed problem); that mode is only meaningful where the adjoint
    operator is finite and continuous, which among these models is the
    symmetric-equal one.
    """
    return _measure_triples(model, [sub], [x], adjoint)[0]


def _measure_triples(model: ModelSpace, subs: Sequence[RegularSubdomain],
                     xs: Sequence[float],
                     adjoint: bool) -> list[MeasureTriple]:
    """The triple of subs[i] at its interior point xs[i], for every i.

    Every point is checked against its subdomain before any integration;
    the nu masses of all the points are then one :func:`_nu_masses` call.
    """
    xs = [sub.require_interior(x) for sub, x in zip(subs, xs)]
    if adjoint and model.id != "bilaplace1d":
        raise ModelDomainError(
            "the adjoint boundary triple is only available on the "
            "symmetric-equal model, where the transpose coupling is "
            "finite and continuous")
    triples = []
    for sub, x, (na, nb) in zip(subs, xs, _nu_masses(
            model, subs, xs, adjoint).tolist()):
        (ma, mb), (la, lb) = sub.cardinals1(x), sub.cardinals2(x)
        if adjoint:
            (ma, mb), (la, lb) = (la, lb), (ma, mb)
        triples.append(MeasureTriple(
            (sub.a, sub.b), x,
            (_clip_weight(float(ma), "mu"), _clip_weight(float(mb), "mu")),
            (_clip_weight(na, "nu"), _clip_weight(nb, "nu")),
            (_clip_weight(float(la), "lambda"),
             _clip_weight(float(lb), "lambda"))))
    return triples


@dataclass(frozen=True)
class RiquierSolution:
    """The pair (u, v) matching boundary data (f, g) on a subinterval."""
    omega: tuple[float, float]
    f: tuple[float, float]
    g: tuple[float, float]
    u: Callable
    v: Callable
    harmonic_part: Callable


def solve_riquier(model: ModelSpace, sub: RegularSubdomain,
                  f: Sequence[float], g: Sequence[float]) -> RiquierSolution:
    """Solve the two-component boundary problem on [a, b].

    v is the second-basis interpolant of g.  u is the measure pairing
    h1(x) + g_a nu_a(x) + g_b nu_b(x), h1 the first-basis interpolant of f:
    its particular part is int K_omega(x, z) v(z) w(z) dz written through
    the nonnegative nu masses, so signed data need no signed quadrature.
    u takes a point or an array of points, whose masses are computed in
    one quadrature call at ``NU_TOL``, kept tight so that
    finite-difference residual checks on u are not washed out by node
    noise; a point's value does not depend on the array it is in.
    """
    fa, fb = float(f[0]), float(f[1])
    ga, gb = float(g[0]), float(g[1])
    for val in (fa, fb, ga, gb):
        if not math.isfinite(val):
            raise PreconditionError("boundary data must be finite")
    v = sub.interpolant2(ga, gb)
    h1 = sub.interpolant1(fa, fb)
    a, b = sub.a, sub.b

    def u(x):
        xs = np.asarray(x, dtype=float)
        nu = _nu_masses(model, [sub] * xs.size, xs.ravel(), False)
        # elementwise, not nu @ (ga, gb), so the bits match across arrays
        out = np.asarray(h1(xs), dtype=float) + \
            (ga * nu[:, 0] + gb * nu[:, 1]).reshape(xs.shape)
        return float(out) if xs.ndim == 0 else out

    return RiquierSolution((a, b), (fa, fb), (ga, gb),
                           Fn(u, breakpoints=(a, b), vectorized=True,
                              name="riquier-u"),
                           v, h1)


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


def check_riquier_solution(model: ModelSpace,
                           sol: RiquierSolution) -> SolutionResiduals:
    """Residuals certifying a solution: boundary match and both operator ODEs.

    Both ODEs are read at five probes spread across the subinterval.  The
    u-residual stencil runs at a coarse step because u is
    quadrature-backed: the step must stay well above the node noise floor.
    Each stencil reads its function on the windows of every probe in one
    call.
    """
    a, b = sol.omega
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
    def passed(self) -> bool:
        return all(e.margin_first >= -IDENTITY_TOL
                   and e.margin_second >= -IDENTITY_TOL
                   for e in self.entries)

    @property
    def violated(self) -> tuple[ProbeMargin, ...]:
        return tuple(e for e in self.entries
                     if e.margin_first < -IDENTITY_TOL
                     or e.margin_second < -IDENTITY_TOL)

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
    triples = _measure_triples(model, [subs[omega] for omega, _ in probes],
                               [x for _, x in probes], False)
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
