"""The coupling operators: V, its weighted variant W, and the composed kernel H.

``coupling_apply`` realizes Vf(x) = int G1(x,y) f(y) dmu(y) on any model
space; ``compose_green`` composes the two kernels into
H(x,y) = int G1(x,z) G2(z,y) dmu(z).  Both return extended values: a
divergent integral is a legitimate result carrying its certificate, never an
exception.  ``pure_decompose`` and ``classify_pair`` sit on top and split a
superharmonic pair into its potential and harmonic parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClassificationError, PreconditionError
from .kernels import (BiharmonicPair, Fn, Interval1D, ModelSpace,
                      is_grid_function)
from .quadrature import as_vectorized, integrate, integrate_radial
from .values import (IDENTITY_TOL, QUAD_TOL, DivergenceCertificate,
                     ExtendedValue)
from . import riquier


def _product(g, f) -> Fn:
    gv, fv = as_vectorized(g), as_vectorized(f)

    def h(z):
        return np.asarray(gv(z), dtype=float) * np.asarray(fv(z), dtype=float)

    bks = tuple(getattr(g, "breakpoints", ())) + tuple(getattr(f, "breakpoints", ()))
    sings = tuple(getattr(g, "singular_points", ())) + \
        tuple(getattr(f, "singular_points", ()))
    return Fn(h, breakpoints=bks, vectorized=True, singular_points=sings,
              support=getattr(f, "support", None))


def _flip_side(side: str) -> str:
    if side == "left":
        return "right"
    if side == "right":
        return "left"
    return side


def _unmirror_certificate(cert: DivergenceCertificate,
                          axis: float) -> DivergenceCertificate:
    loc = cert.location
    if isinstance(loc, (int, float)) and math.isfinite(float(loc)):
        loc = axis - float(loc)
    return DivergenceCertificate(location=loc, side=_flip_side(cert.side),
                                 estimated_exponent=cert.estimated_exponent,
                                 probe_trace=cert.probe_trace)


def _sliced_integral(model: ModelSpace, kernel_slice, f, x, tol: float,
                     mirrored: bool = False) -> ExtendedValue:
    """V and V*: int k(y) f(y) dmu(y) on the 1D domain, k = kernel_slice(x).

    ``mirrored`` integrates in t = lo + hi - y, so the panels differ from the
    forward ones, and maps a divergence certificate back to y.
    """
    x = model.domain.require(x)
    integrand = _product(kernel_slice(x), f)
    sings = set(integrand.singular_points)
    if is_grid_function(f) and sings:
        raise PreconditionError(
            "grid functions carry no information below their spacing; this "
            f"integral must resolve singular points {sorted(sings)}")
    lo, hi = model.domain.lo, model.domain.hi
    if integrand.support is not None:
        lo, hi = max(lo, integrand.support[0]), min(hi, integrand.support[1])
        if hi <= lo:
            return ExtendedValue.finite(0.0)
    weighted = model.mu.weighted(integrand)
    sings = [s for s in sings if lo <= s <= hi]
    bks = integrand.breakpoints
    if mirrored:
        axis = lo + hi
        forward = weighted

        def weighted(t):
            return np.asarray(forward(axis - np.asarray(t, dtype=float)),
                              dtype=float)

        weighted.vectorized = True
        sings = [axis - s for s in sings]
        bks = [axis - b for b in bks]
    val = integrate(weighted, (lo, hi), singular_points=sorted(sings),
                    tol=tol, breakpoints=bks).value
    if mirrored and not val.is_finite:
        val = ExtendedValue.infinite(
            _unmirror_certificate(val.certificate, axis))
    return val


def _coupling_radial(model: ModelSpace, f, x, tol: float) -> ExtendedValue:
    if is_grid_function(f):
        raise PreconditionError(
            "grid functions carry no information near the kernel's singular "
            "origin; pass a closed-form radial profile")
    xv = model.domain.require(x)
    e1 = np.zeros(model.dim)
    e1[0] = 1.0
    fv = as_vectorized(f)
    raw = model.G1.raw

    def prof(rs):
        rs = np.atleast_1d(np.asarray(rs, dtype=float))
        zs = xv[None, :] + rs[:, None] * e1[None, :]
        return np.asarray(raw(xv, zs), dtype=float) * np.asarray(fv(rs), dtype=float)

    prof.vectorized = True
    support = getattr(f, "support", None)
    upper = None if support is None else float(support[1])
    bks = [b for b in getattr(f, "breakpoints", ()) if b > 0.0]
    res = integrate_radial(prof, model.dim, upper=upper, tol=tol,
                           singular_at_zero=True, breakpoints=bks)
    return res.value


def coupling_apply(model: ModelSpace, f, x, tol: float = QUAD_TOL) -> ExtendedValue:
    """Vf(x) = int G1(x,y) f(y) dmu(y), as an extended value.

    ``f`` must be nonnegative and evaluable on the domain (an :class:`Fn`,
    a :class:`GridFunction`, or any callable).  On the radial models ``f``
    is read as a radial profile around ``x``, which is the only shape the
    reduction to a 1D integral supports; constants qualify.  Divergence is a
    valid return, not an error.
    """
    if model.is_radial:
        return _coupling_radial(model, f, x, tol)
    return _sliced_integral(model, model.G1.slice_in_second, f, x, tol)


def w_apply(model: ModelSpace, q, f, x, tol: float = QUAD_TOL) -> ExtendedValue:
    """W(f)(x) with weight q: equals V(q*f)(x); q must be positive and finite.

    Positivity is enforced by sampling q across the domain (and the support
    of f, if declared) rather than trusted from the caller.
    """
    if model.is_radial:
        probes = np.linspace(0.05, 4.0, 23)
    else:
        dom: Interval1D = model.domain
        probes = dom.interior_grid(23)
    qv = as_vectorized(q)
    qs = np.asarray(qv(probes), dtype=float)
    if not np.all(np.isfinite(qs)) or np.any(qs <= 0.0):
        bad = probes[~(np.isfinite(qs) & (qs > 0.0))][0]
        raise PreconditionError(
            f"weight must be finite and positive; it fails at {bad:g}")
    return coupling_apply(model, _product(q, f), x, tol=tol)


def compose_green(model: ModelSpace, x, y, tol: float = QUAD_TOL) -> ExtendedValue:
    """H(x,y) = int G1(x,z) G2(z,y) dmu(z), the kernel of the composed problem.

    On the radial models this dispatches to the two-variable reduction; on
    the 1D models it is V applied to the G2 slice, so its divergences carry
    the same shell certificates as any other coupling integral.
    """
    if model.is_radial:
        from .models.newtonian import riesz_compose
        return riesz_compose(model.dim, x, y, tol=tol)
    model.domain.require(y)
    f = model.G2.slice_in_first(y)      # z -> G2(z, y)
    return coupling_apply(model, f, x, tol=tol)


def pure_decompose(model: ModelSpace, pair: BiharmonicPair, grid,
                   tol: float = IDENTITY_TOL,
                   quad_tol: float = QUAD_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Split u = u0 + u1 with u0 = V(v); u1 must come out (near-)nonnegative.

    Returns (u0, u1) sampled on ``grid``.  A grid point where u1 drops below
    -tol refutes the pair's superharmonicity claim and raises
    :class:`ClassificationError`; so does a divergent V(v) under finite u.
    """
    grid = [float(g) for g in grid]
    u0 = np.empty(len(grid))
    u1 = np.empty(len(grid))
    for i, x in enumerate(grid):
        val = coupling_apply(model, pair.v, x, tol=quad_tol)
        ux = float(pair.u(x))
        if not val.is_finite:
            raise ClassificationError(
                f"V(v) diverges at {x:g} while u({x:g}) = {ux:g} is finite; "
                "the pair admits no pure part")
        u0[i] = val.value
        u1[i] = ux - u0[i]
    if np.min(u1) < -tol:
        i = int(np.argmin(u1))
        raise ClassificationError(
            f"u - V(v) = {u1[i]:.3e} < -{tol:g} at x = {grid[i]:g}: "
            "the pair is not superharmonic")
    return u0, u1


@dataclass(frozen=True)
class ClassifyReport:
    """Outcome of sampling a pair against the defining mean-value inequalities."""
    flags: frozenset[str]
    probe_report: "riquier.HyperharmonicReport"
    finite_on_grid: bool
    pure_residual: float | None    # max |u - V(v)| when that was computable

    @property
    def violated(self):
        return self.probe_report.violated


def classify_pair(model: ModelSpace, pair: BiharmonicPair, grid, subintervals,
                  tol: float = IDENTITY_TOL) -> ClassifyReport:
    """Assign {hyperharmonic, superharmonic, harmonic, pure} flags by probing.

    The two sub-mean-value inequalities are tested at three interior points
    of every subinterval.  Any locally biharmonic pair reproduces its swept
    values with equality, so equality alone cannot separate harmonic pairs
    from pure ones; the harmonic flag additionally requires the coupling
    term <v, nu> to vanish, i.e. each component must reproduce under its
    own boundary sweep.  Finiteness on ``grid`` upgrades a non-harmonic
    hyperharmonic pair to superharmonic, and a vanishing u - V(v) residual
    to pure.  The potential flag is never set here: it quantifies over all
    harmonic minorants, which no sample can decide, so it only ever comes
    from constructor provenance.
    """
    probes = []
    for a, b in subintervals:
        w = b - a
        for frac in (0.25, 0.5, 0.75):
            probes.append(((a, b), a + frac * w))
    report = riquier.verify_hyperharmonic(model, pair, probes, tol=tol)

    grid = [float(g) for g in grid]
    finite = True
    for x in grid:
        if not (math.isfinite(float(pair.u(x))) and math.isfinite(float(pair.v(x)))):
            finite = False
            break

    flags: set[str] = set()
    pure_residual = None
    if report.passed:
        flags.add("hyperharmonic")
        if report.max_abs_margin <= tol and report.max_coupling <= tol:
            flags.add("harmonic")
        elif finite:
            flags.add("superharmonic")
            try:
                _, u1 = pure_decompose(model, pair, grid, tol=tol)
            except ClassificationError:
                pass
            else:
                pure_residual = float(np.max(np.abs(u1)))
                if pure_residual <= tol:
                    flags.add("pure")
    return ClassifyReport(frozenset(flags), report, finite, pure_residual)
