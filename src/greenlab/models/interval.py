"""The interval model on [0, 1): kernels 1/max - 1 and 1/max^2 - 1.

This is the negative fixture of the library.  Its coupling measure has
density y, pinned down by the kink of x * G1(x, y) at x = y (the jump of the
one-sided slopes is -1/y, so weighting by y makes the coupling invert the
first operator exactly; ``kink_slope_jump`` measures this).  The composed
kernel H(., 0) diverges, the adjoint coupling of anything positive at the
origin diverges, and every candidate pure partner of q0(x) = 1/x^2 - 1 goes
to -infinity at the origin - each of which the functions below certify
rather than assume.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ..errors import PreconditionError
from ..coupling import compose_green, coupling_apply
from ..kernels import (BiharmonicPair, EndpointSingularity, Fn, GreenKernel,
                       Interval1D, ModelSpace, ReferenceMeasure, constant)
from ..quadrature import StencilSpec
from ..values import IDENTITY_TOL, QUAD_TOL, ExtendedValue
from .. import riquier

# Evaluating 1/x and ln(x)/x below this is float-overflow territory; the
# obstruction's negativity is already decisive far above it.
OBSTRUCTION_CUTOFF = 1e-8


def _g1_raw(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore"):
        return 1.0 / np.maximum(x, y) - 1.0


def _g2_raw(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore"):
        return 1.0 / np.maximum(x, y) ** 2 - 1.0


def _one(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _inv(x):
    return 1.0 / np.asarray(x, dtype=float)


def _inv2(x):
    return 1.0 / np.asarray(x, dtype=float) ** 2


@lru_cache(maxsize=1)
def interval_model() -> ModelSpace:
    dom = Interval1D(0.0, 1.0, include_lo=True)
    g1 = GreenKernel("interval-G1", dom, _g1_raw,
                     endpoint_singularities=(
                         EndpointSingularity(0.0, "right", -1.0),))
    g2 = GreenKernel("interval-G2", dom, _g2_raw,
                     endpoint_singularities=(
                         EndpointSingularity(0.0, "right", -2.0),))
    mu = ReferenceMeasure("y dy", lambda y: np.asarray(y, dtype=float) + 0.0)
    return ModelSpace(
        id="interval", domain=dom, G1=g1, G2=g2, mu=mu,
        basis1=(_one, _inv), basis2=(_one, _inv2),
        L1_stencil=StencilSpec("(x u)''", "product_second",
                               weight=lambda x: float(x)),
        L2_stencil=StencilSpec("(x^3 v')' / x^3", "flux",
                               weight=lambda x: float(x) ** 3),
        kink_density=lambda z: np.asarray(z, dtype=float) + 0.0)


def control_density_model() -> ModelSpace:
    """The same model under the density y(1-y), kept as a control.

    This density is the one a first reading of the construction suggests,
    but it fails the coupling identity: V(1) comes out (1-x)(2-x)/6 instead
    of (1-x)/2.  It is retained so the discrepancy stays measurable.
    """
    mu = ReferenceMeasure(
        "y(1-y) dy",
        lambda y: np.asarray(y, dtype=float) * (1.0 - np.asarray(y, dtype=float)))
    return replace(interval_model(), id="interval-alt-density", mu=mu)


def _v1_residual(model: ModelSpace, x, closed_form):
    """|V(1) - closed_form| at the point or 1-D array of points x.

    V(1) comes from one coupling call; an array x gives an array whose
    entries have the bits of scalar calls.
    """
    vals = coupling_apply(model, constant(1.0), x)
    if np.ndim(x) == 0:
        return abs(float(vals) - closed_form(float(x)))
    return np.array([abs(float(v) - closed_form(p)) for v, p
                     in zip(vals, np.asarray(x, dtype=float).tolist())])


def v1_identity_residual(x):
    """|V(1)(x) - (1-x)/2|: the closed-form coupling identity for density y.

    x is a point, giving a float, or a 1-D array of points, giving an array
    from one V(1) call.
    """
    return _v1_residual(interval_model(), x, lambda t: 0.5 * (1.0 - t))


def v1_alt_density_residual(x):
    """|V(1)(x) - (1-x)(2-x)/6| under the control density y(1-y).

    x is a point or a 1-D array of points, as in :func:`v1_identity_residual`.
    """
    return _v1_residual(control_density_model(), x,
                        lambda t: (1.0 - t) * (2.0 - t) / 6.0)


def pure_of_q(y: float, x: float, tol: float = QUAD_TOL) -> ExtendedValue:
    """The pure partner of the kernel slice q_y, evaluated at x.

    Finite for every y > 0; at y = 0 the coupling integrand behaves like
    1/z at the origin and the value is +inf with a shell certificate.  The
    origin is thus the model's one exceptional point.
    """
    return compose_green(interval_model(), x, y, tol=tol)


def q0(x):
    """The positive second-sheaf harmonic function 1/x^2 - 1 driving the obstruction."""
    return _g2_raw(x, 0.0)


def obstruction_u(a: float, b: float) -> Fn:
    """The general solution u of (x u)'' = 1 - 1/x^2: ln(x)/x + x/2 + a + b/x.

    Whatever (a, b) are chosen, u(x) ~ (ln x + b)/x -> -inf as x -> 0, so no
    choice produces a nonnegative partner for q0: the pure partner does not
    exist as a function, and this family is the complete list of candidates.
    """
    a, b = float(a), float(b)

    def u(x):
        x = np.asarray(x, dtype=float)
        return np.log(x) / x + 0.5 * x + a + b / x

    return Fn(u, vectorized=True, name=f"obstruction(a={a:g},b={b:g})")


def pure_obstruction(a: float, b: float, probes) -> float:
    """Minimum of the obstruction candidate over the probe points.

    Probes must stay in [OBSTRUCTION_CUTOFF, 1): below the cutoff 1/x
    evaluation is overflow-prone, and the minimum is long since negative by
    then anyway.
    """
    pts = np.asarray(list(probes), dtype=float)
    if pts.size == 0:
        raise PreconditionError("need at least one probe point")
    if np.any(pts < OBSTRUCTION_CUTOFF) or np.any(pts >= 1.0):
        raise PreconditionError(
            f"obstruction probes must lie in [{OBSTRUCTION_CUTOFF:g}, 1)")
    u = obstruction_u(a, b)
    return float(np.min(u(pts)))


def kink_slope_jump(y: float) -> float:
    """One-sided slope jump of x * G1(x, y) across x = y (exact value -1/y).

    The slopes are one-sided differences at step h = 1e-6.  This jump is
    the delta normalization of the first operator applied to the kernel
    slice, and it is what forces the coupling density to be y.
    """
    y = float(y)
    h = 1e-6
    if not h < y < 1.0:
        raise PreconditionError("the jump probe needs h = 1e-6 < y < 1")

    def m(x):
        return float(x) * float(_g1_raw(x, y))

    right = (m(y + h) - m(y)) / h
    left = (m(y) - m(y - h)) / h
    return right - left


@dataclass(frozen=True)
class StrictnessReport:
    """Margin of the first mean-value inequality split into its two parts."""
    margin: float       # u(x) - <u, mu_x>
    nu_term: float      # <v, nu_x>

    @property
    def strict(self) -> bool:
        return (self.nu_term > IDENTITY_TOL
                and self.margin >= self.nu_term - IDENTITY_TOL)


def strictness_probe(pair: BiharmonicPair, omega: tuple[float, float],
                     x: float) -> StrictnessReport:
    """How far u(x) exceeds its swept mean, versus the nu-term that forces it.

    For a pure pair with positive second member the margin must carry the
    whole nu-term, which is what makes the potential strict; with v = 0 and
    u harmonic both sides collapse to zero.
    """
    model = interval_model()
    sub = riquier.regular_subdomain(model, *omega)
    triple = riquier.biharmonic_measures(model, sub, x)
    a, b = omega
    ua, ub = float(pair.u(a)), float(pair.u(b))
    va, vb = float(pair.v(a)), float(pair.v(b))
    margin = float(pair.u(x)) - (triple.mu[0] * ua + triple.mu[1] * ub)
    nu_term = triple.nu[0] * va + triple.nu[1] * vb
    return StrictnessReport(margin, nu_term)


def global_pure_pair() -> BiharmonicPair:
    """((1-x)/2, 1): the closed-form pure pair of the constant 1."""
    return BiharmonicPair(
        Fn(lambda x: 0.5 * (1.0 - np.asarray(x, dtype=float)),
           vectorized=True, name="(1-x)/2"),
        constant(1.0),
        frozenset({"hyperharmonic", "superharmonic", "pure"}),
        provenance="closed form: (x u)'' = -x with u(1)=0 and V(1) = u")
