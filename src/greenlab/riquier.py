"""Two-point boundary problems for the coupled pair on subintervals.

A regular subinterval carries a triple of boundary measures (mu_x, nu_x,
lambda_x): the first component of the solution pairs boundary data (f, g)
as <f, mu_x> + <g, nu_x>, the second as <g, lambda_x>.  The solver builds
the localized kernel K_omega (the global G1 minus its harmonic interpolant)
and integrates it against the second component with the model's kink
density w, which is exactly the normalization under which the localized
kernel inverts the first operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ModelDomainError, PreconditionError, RegularityError
from .kernels import BiharmonicPair, Fn, Interval1D, ModelSpace
from .quadrature import adaptive_panels, fd_residual
from .values import IDENTITY_TOL

COND_LIMIT = 1e10


def _interp_matrix(basis, a: float, b: float) -> np.ndarray:
    b1, b2 = basis
    m = np.array([[float(b1(a)), float(b2(a))],
                  [float(b1(b)), float(b2(b))]], dtype=float)
    if not np.all(np.isfinite(m)):
        raise RegularityError(
            f"a basis function is singular on [{a:g}, {b:g}]")
    return m


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

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.a, self.b)

    def require_interior(self, x: float) -> float:
        x = float(x)
        if not (self.a < x < self.b):
            raise PreconditionError(
                f"{x:g} is not interior to [{self.a:g}, {self.b:g}]")
        return x

    def _cardinals(self, inv: np.ndarray, basis, x):
        xs = np.asarray(x, dtype=float)
        row = np.stack([np.asarray(basis[0](xs), dtype=float) *
                        np.ones_like(xs),
                        np.asarray(basis[1](xs), dtype=float) *
                        np.ones_like(xs)], axis=-1)
        w = row @ inv
        return w[..., 0], w[..., 1]

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
        ok = dom.lo <= a and b <= dom.hi
    else:
        ok = dom.lo < a and b < dom.hi
    if not ok:
        raise PreconditionError(
            f"[{a:g}, {b:g}] does not sit inside the domain "
            f"[{dom.lo:g}, {dom.hi:g})")
    m1 = _interp_matrix(model.basis1, a, b)
    m2 = _interp_matrix(model.basis2, a, b)
    cond = max(float(np.linalg.cond(m1)), float(np.linalg.cond(m2)))
    if not math.isfinite(cond) or cond > COND_LIMIT:
        raise RegularityError(
            f"interpolation on [{a:g}, {b:g}] has condition number {cond:.2e}; "
            "the subdomain is numerically non-regular")
    return RegularSubdomain(model.id, a, b, cond, model.basis1, model.basis2,
                            np.linalg.inv(m1), np.linalg.inv(m2))


class LocalizedGreen:
    """K_omega(x, z): the global kernel swept clean on the boundary.

    K(x, z) = G1(x, z) - (harmonic interpolant of G1(., z) at {a, b})(x);
    it vanishes identically for x on the boundary and stays nonnegative
    inside, so it is the Green kernel of the first operator on [a, b].
    """

    def __init__(self, model: ModelSpace, sub: RegularSubdomain,
                 raw=None, cardinals=None):
        self.sub = sub
        self._raw = raw or model.G1.raw
        self._cards = cardinals or sub.cardinals1

    def slice_at(self, x: float) -> Fn:
        x = float(x)
        ca, cb = self._cards(x)
        ca, cb = float(ca), float(cb)
        a, b = self.sub.a, self.sub.b
        raw = self._raw

        def g(z):
            z = np.asarray(z, dtype=float)
            return raw(x, z) - ca * raw(a, z) - cb * raw(b, z)

        return Fn(g, breakpoints=(x,), vectorized=True,
                  name=f"K_omega({x:g},.)")


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


def _localized_mass(loc: LocalizedGreen, x: float, g, density,
                    quad_tol: float) -> float:
    """int_a^b K_omega(x, z) g(z) w(z) dz, w the model's kink density."""
    kx = loc.slice_at(x)

    def integrand(z):
        z = np.asarray(z, dtype=float)
        return (np.asarray(kx(z), dtype=float)
                * np.asarray(g(z), dtype=float)
                * np.asarray(density(z), dtype=float))

    integrand.vectorized = True
    val, _, _ = adaptive_panels(integrand, loc.sub.a, loc.sub.b, quad_tol,
                                breakpoints=(x,))
    return val


def biharmonic_measures(model: ModelSpace, sub: RegularSubdomain, x: float,
                        adjoint: bool = False,
                        quad_tol: float = 1e-10) -> MeasureTriple:
    """The measure triple of [a, b] at interior x.

    mu_x and lambda_x are the interpolation weights of the two bases; the
    nu_x masses integrate the localized kernel against the second basis'
    cardinal functions, weighted by the kink density.  With ``adjoint=True``
    the roles of the two kernels and bases swap (the transposed problem);
    that mode is only meaningful where the adjoint operator is finite and
    continuous, which among these models is the symmetric-equal one.
    """
    x = sub.require_interior(x)
    if adjoint:
        if model.id != "bilaplace1d":
            raise ModelDomainError(
                "the adjoint boundary triple is only available on the "
                "symmetric-equal model, where the transpose coupling is "
                "finite and continuous")
        loc = LocalizedGreen(model, sub, raw=lambda u, v: model.G2.raw(v, u),
                             cardinals=sub.cardinals2)
        ma, mb = sub.cardinals2(x)
        la, lb = sub.cardinals1(x)
        cardinal_interp = sub.interpolant1
    else:
        loc = LocalizedGreen(model, sub)
        ma, mb = sub.cardinals1(x)
        la, lb = sub.cardinals2(x)
        cardinal_interp = sub.interpolant2
    na, nb = (_localized_mass(loc, x, cardinal_interp(*data),
                              model.kink_density, quad_tol)
              for data in ((1.0, 0.0), (0.0, 1.0)))
    return MeasureTriple(
        (sub.a, sub.b), x,
        (_clip_weight(float(ma), "mu"), _clip_weight(float(mb), "mu")),
        (_clip_weight(na, "nu"), _clip_weight(nb, "nu")),
        (_clip_weight(float(la), "lambda"), _clip_weight(float(lb), "lambda")))


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
                  f: Sequence[float], g: Sequence[float],
                  quad_tol: float = 1e-10) -> RiquierSolution:
    """Solve the two-component boundary problem on [a, b].

    v is the second-basis interpolant of g; u adds to the first-basis
    interpolant of f the localized-kernel integral of v against the kink
    density.  Each evaluation of u runs one adaptive quadrature at
    ``quad_tol``, kept tight so that finite-difference residual checks on u
    are not washed out by node noise.
    """
    fa, fb = float(f[0]), float(f[1])
    ga, gb = float(g[0]), float(g[1])
    for val in (fa, fb, ga, gb):
        if not math.isfinite(val):
            raise PreconditionError("boundary data must be finite")
    v = sub.interpolant2(ga, gb)
    h1 = sub.interpolant1(fa, fb)
    loc = LocalizedGreen(model, sub)
    a, b = sub.a, sub.b

    def particular(x: float) -> float:
        x = float(x)
        if x <= a or x >= b:
            return 0.0
        return _localized_mass(loc, x, v, model.kink_density, quad_tol)

    def u(x):
        if np.ndim(x) == 0:
            return float(h1(float(x))) + particular(float(x))
        xs = np.asarray(x, dtype=float)
        return np.asarray(h1(xs), dtype=float) + \
            np.array([particular(t) for t in xs])

    return RiquierSolution((a, b), (fa, fb), (ga, gb),
                           Fn(u, breakpoints=(a, b), vectorized=True,
                              name="riquier-u"),
                           v, h1)


@dataclass(frozen=True)
class SolutionResiduals:
    boundary_gap: float
    l1_residual: float
    l2_residual: float

    def passed(self, boundary_tol: float = 1e-9, fd_tol: float = 1e-3) -> bool:
        return (self.boundary_gap <= boundary_tol
                and self.l1_residual <= fd_tol
                and self.l2_residual <= fd_tol)


def check_riquier_solution(model: ModelSpace, sol: RiquierSolution,
                           n_probes: int = 5, h: float = 1e-2) -> SolutionResiduals:
    """Residuals certifying a solution: boundary match and both operator ODEs.

    The u-residual stencil runs at a coarse step because u is
    quadrature-backed: the step must stay well above the node noise floor.
    """
    a, b = sol.omega
    boundary_gap = max(abs(float(sol.v(a)) - sol.g[0]),
                       abs(float(sol.v(b)) - sol.g[1]),
                       abs(float(sol.u(a)) - sol.f[0]),
                       abs(float(sol.u(b)) - sol.f[1]))
    probes = np.linspace(a, b, n_probes + 2)[1:-1]
    pad = 2.5 * h
    l1 = 0.0
    l2 = 0.0
    for x in probes:
        x = float(min(max(x, a + pad), b - pad))
        r1 = fd_residual(model.L1_stencil, sol.u, x, h=h) + float(sol.v(x))
        r2 = fd_residual(model.L2_stencil, sol.v, x, h=1e-4)
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
    tol: float

    @property
    def passed(self) -> bool:
        return all(e.margin_first >= -self.tol and e.margin_second >= -self.tol
                   for e in self.entries)

    @property
    def violated(self) -> tuple[ProbeMargin, ...]:
        return tuple(e for e in self.entries
                     if e.margin_first < -self.tol
                     or e.margin_second < -self.tol)

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


def verify_hyperharmonic(model: ModelSpace, pair: BiharmonicPair, probes,
                         tol: float = IDENTITY_TOL) -> HyperharmonicReport:
    """Test the two defining inequalities of the pair at (omega, x) probes.

    Each probe compares u(x) with <u, mu_x> + <v, nu_x> and v(x) with
    <v, lambda_x>; margins are center minus swept value, so hyperharmonic
    means every margin >= -tol.
    """
    entries = []
    for (a, b), x in probes:
        sub = regular_subdomain(model, a, b)
        triple = biharmonic_measures(model, sub, x)
        ua, ub = float(pair.u(a)), float(pair.u(b))
        va, vb = float(pair.v(a)), float(pair.v(b))
        coupling = triple.pair_coupling((va, vb))
        swept1 = triple.pair_first((ua, ub), (va, vb))
        swept2 = triple.pair_second((va, vb))
        m1 = _safe_margin(float(pair.u(x)), swept1)
        m2 = _safe_margin(float(pair.v(x)), swept2)
        entries.append(ProbeMargin((a, b), float(x), m1, m2, float(coupling)))
    return HyperharmonicReport(tuple(entries), tol)
