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
from typing import Callable, NamedTuple

import numpy as np

from .errors import ClassificationError, PreconditionError
from .kernels import (BiharmonicPair, Fn, GreenKernel, Interval1D, ModelSpace,
                      is_grid_function, times)
from .quadrature import QuadRows, as_vectorized, integrate, integrate_radial
from .values import IDENTITY_TOL, QUAD_TOL, ExtendedValue
from . import riquier


def _product(g, f) -> Fn:
    gv, fv = as_vectorized(g), as_vectorized(f)

    def h(z):
        return times(gv(z), fv(z))

    bks = tuple(getattr(g, "breakpoints", ())) + tuple(getattr(f, "breakpoints", ()))
    sings = tuple(getattr(g, "singular_points", ())) + \
        tuple(getattr(f, "singular_points", ()))
    return Fn(h, breakpoints=bks, vectorized=True, singular_points=sings,
              support=getattr(f, "support", None))


class _Rows(NamedTuple):
    """One function per row of a batch, with what the rows declare.

    ``at(r, z)`` is row r's function at z, elementwise in both arguments;
    ``breakpoints`` holds the rows' breakpoints as columns, each a float
    shared by every row or an array with one per row; ``singular_points``
    maps the index of each row that declares singular points to them;
    ``support`` is the support of every row (None for none), and ``grid``
    says the rows are grid functions.
    """
    at: Callable
    breakpoints: list
    singular_points: dict
    support: tuple | None = None
    grid: bool = False


def _kernel_rows(kernel: GreenKernel, points: np.ndarray) -> _Rows:
    """Slices of ``kernel`` at ``points``: z -> K(p, z)."""
    def at(r, z):
        return kernel.raw(points[r], z)
    return _Rows(at, *kernel.slice_declarations(points))


def _shared_rows(f, n: int) -> _Rows:
    """The same function f on each of n rows."""
    fv = as_vectorized(f)
    sings = tuple(float(s) for s in getattr(f, "singular_points", ()))
    return _Rows(lambda r, z: fv(z),
                 [float(b) for b in getattr(f, "breakpoints", ())],
                 dict.fromkeys(range(n), sings) if sings else {},
                 getattr(f, "support", None), is_grid_function(f))


def _point_rows(model: ModelSpace, *points) -> tuple[list[np.ndarray], bool]:
    """The points of a 1D operator call as rows, and whether it was scalar.

    Each argument is a scalar or a 1-D array, and they broadcast against
    each other.  Every point is checked against the domain before any
    integration, row by row and in argument order, so an outside point
    raises the DomainError a loop over the rows would raise.  An array call
    whose points all lie inside the open interval passes with one
    comparison per column; a scalar call, and an array call that fails it,
    take the loop, which raises or accepts a closed end.
    """
    arrs = [np.asarray(p, dtype=float) for p in points]
    shapes = {a.shape for a in arrs}
    if len(shapes) == 1:
        shape = shapes.pop()
    else:
        try:
            shape = np.broadcast(*arrs).shape
        except ValueError as exc:
            raise PreconditionError(
                f"the points do not broadcast: {exc}") from exc
    if len(shape) > 1:
        raise PreconditionError(
            f"points come as scalars or 1-D arrays, not shape {shape}")
    cols = [a.reshape(-1) if a.shape == shape else np.broadcast_to(a, shape)
            for a in arrs]
    if shape:
        # a loop, not all() over a generator, whose cells for lo and hi
        # a scalar call would pay for on entry
        lo, hi = model.domain.lo, model.domain.hi
        for c in cols:
            if not ((lo < c) & (c < hi)).all():
                break
        else:
            return cols, False
    # contains is the test; require only raises the DomainError
    contains, require = model.domain.contains, model.domain.require
    for row in zip(*[c.tolist() for c in cols]):
        for p in row:
            if not contains(p):
                require(p)
    return cols, not shape


def _at_points(model: ModelSpace, op, *columns) -> tuple:
    """op at every row of the point columns: op(columns[0][i], ...).

    One array call on the 1D models; the radial models take one point per
    call.
    """
    if model.is_radial:
        return tuple(op(*row) for row in zip(*columns))
    return tuple(op(*(np.asarray(c, dtype=float) for c in columns)))


def _radial_point(model: ModelSpace, x):
    """A radial point as given: a first-axis offset or a coordinate vector."""
    if np.ndim(x) > 1 or (np.ndim(x) == 1 and np.shape(x) != (model.dim,)):
        raise PreconditionError(
            f"the radial models take one point per call, a scalar or a "
            f"vector of R^{model.dim}; arrays of points are for the 1D models")
    return x


def _sliced_integral(model: ModelSpace, n: int, kern: _Rows, f: _Rows,
                     tol: float) -> QuadRows:
    """int k_r(y) f_r(y) dmu(y) on the 1D domain, for each of the n rows r.

    Each row's kernel slice ``kern`` and data ``f`` give its breakpoints and
    singular points, the data its support, and a grid function with a
    singular point is refused.  All rows are integrated together, as the
    columns of one :func:`~greenlab.quadrature.integrate` call that keeps
    the singular points in a row's range; the rows before a refused one
    are integrated before the refusal is raised.
    """
    sings = kern.singular_points
    if f.singular_points:
        sings = {r: (*sings.get(r, ()), *f.singular_points.get(r, ()))
                 for r in sorted({*sings, *f.singular_points})}
    refusal = None
    if f.grid and sings:
        r = min(sings)
        refusal = PreconditionError(
            "grid functions carry no information below their spacing; "
            f"this integral must resolve singular points {sorted({*sings[r]})}")
        n = r
    lo, hi = model.domain.lo, model.domain.hi
    if f.support is not None:
        lo, hi = max(lo, f.support[0]), min(hi, f.support[1])
    if hi <= lo:
        # the support misses the domain: every row is zero
        rows = QuadRows([0.0] * n, [0.0] * n, [0] * n, [True] * n, {})
    else:
        columns = [lo, *kern.breakpoints, *f.breakpoints, hi]
        if refusal is not None:
            columns = [c[:n] if isinstance(c, np.ndarray) else c
                       for c in columns]
        weigh, k_at, f_at = model.mu.weigh, kern.at, f.at

        def weighted(r, y):
            return weigh(times(k_at(r, y), f_at(r, y)), y)

        rows = integrate(weighted, rows=(n, columns, sings), tol=tol)
    if refusal is not None:
        raise refusal
    return rows


def _coupling_radial(model: ModelSpace, f, x, tol: float) -> ExtendedValue:
    if is_grid_function(f):
        raise PreconditionError(
            "grid functions carry no information near the kernel's singular "
            "origin; pass a closed-form radial profile")
    model.domain.require(x)
    fv = as_vectorized(f)
    raw = model.G1.raw

    def prof(rs):
        # the kernel at distance r: raw between the origin and the point (r,)
        rs = np.atleast_1d(np.asarray(rs, dtype=float))
        return (np.asarray(raw(0.0, rs[:, None]), dtype=float)
                * np.asarray(fv(rs), dtype=float))

    prof.vectorized = True
    support = getattr(f, "support", None)
    upper = None if support is None else float(support[1])
    bks = [b for b in getattr(f, "breakpoints", ()) if b > 0.0]
    res = integrate_radial(prof, model.dim, upper=upper, tol=tol,
                           breakpoints=bks)
    return res.value


def coupling_apply(model: ModelSpace, f, x, tol: float = QUAD_TOL):
    """Vf(x) = int G1(x,y) f(y) dmu(y), as an extended value.

    ``f`` must be nonnegative and evaluable on the domain (an :class:`Fn`,
    a :class:`GridFunction`, or any callable).  On the radial models ``f``
    is read as a radial profile around ``x``, which is the only shape the
    reduction to a 1D integral supports; constants qualify.  Divergence is a
    valid return, not an error.

    On the 1D models ``x`` may also be a 1-D array of points: the call then
    returns a tuple of extended values, one per point, each with the bits
    a scalar call gives it.  Every point is checked against the domain
    before any integration; after that the call raises the exception of the
    first point in order whose integral raises.  The radial models take one
    point per call.
    """
    if model.is_radial:
        return _coupling_radial(model, f, _radial_point(model, x), tol)
    rows, scalar = _sliced_rows(model, f, x, tol)
    values = rows.extended()
    return values[0] if scalar else tuple(values)


def _sliced_rows(model: ModelSpace, f, x, tol: float) -> tuple[QuadRows,
                                                              bool]:
    """V of f at the points x of a 1D model as the rows of one integrate
    call, and whether x was a scalar."""
    (xs,), scalar = _point_rows(model, x)
    return _sliced_integral(model, xs.size, _kernel_rows(model.G1, xs),
                            _shared_rows(f, xs.size), tol), scalar


def w_apply(model: ModelSpace, q, f, x, tol: float = QUAD_TOL) -> ExtendedValue:
    """W(f)(x) with weight q: equals V(q*f)(x); q must be positive and finite.

    Positivity is enforced by sampling q rather than trusted from the
    caller: at 23 points across the domain (radii 0.05 to 4 on the radial
    models), and, if f declares a support, at 23 more spread over the
    inside of that support clipped to the domain.
    """
    if model.is_radial:
        probes, lo, hi = np.linspace(0.05, 4.0, 23), 0.0, math.inf
    else:
        dom: Interval1D = model.domain
        probes, lo, hi = dom.interior_grid(23), dom.lo, dom.hi
    support = getattr(f, "support", None)
    if support is not None:
        a, b = max(lo, float(support[0])), min(hi, float(support[1]))
        if a < b < math.inf:
            probes = np.concatenate((probes, np.linspace(a, b, 25)[1:-1]))
    qv = as_vectorized(q)
    qs = np.asarray(qv(probes), dtype=float)
    if not np.all(np.isfinite(qs)) or np.any(qs <= 0.0):
        bad = probes[~(np.isfinite(qs) & (qs > 0.0))][0]
        raise PreconditionError(
            f"weight must be finite and positive; it fails at {bad:g}")
    return coupling_apply(model, _product(q, f), x, tol=tol)


def compose_green(model: ModelSpace, x, y, tol: float = QUAD_TOL):
    """H(x,y) = int G1(x,z) G2(z,y) dmu(z), the kernel of the composed problem.

    On the radial models this dispatches to the two-variable reduction; on
    the 1D models it is V applied to the G2 slice, so its divergences carry
    the same shell certificates as any other coupling integral.

    On the 1D models ``x`` and ``y`` may also be 1-D arrays of points that
    broadcast against each other: the call then returns a tuple of extended
    values, one per (x, y) pair, each with the bits a scalar call gives it.
    Every point is checked against the domain (y, then x, pair by pair)
    before any integration; after that the call raises the exception of the
    first pair in order whose integral raises.  The radial models take one
    pair per call.
    """
    if model.is_radial:
        from .models.newtonian import riesz_compose
        return riesz_compose(model.dim, _radial_point(model, x),
                             _radial_point(model, y), tol=tol)
    rows, scalar = _compose_rows(model, x, y, tol)
    values = rows.extended()
    return values[0] if scalar else tuple(values)


def _compose_rows(model: ModelSpace, x, y, tol: float) -> tuple[QuadRows,
                                                                bool]:
    """H at the (x, y) pairs of a 1D model as the rows of one integrate
    call, checked as :func:`compose_green` checks them, and whether both
    points were scalars."""
    (ys, xs), scalar = _point_rows(model, y, x)
    return _sliced_integral(model, xs.size, _kernel_rows(model.G1, xs),
                            _kernel_rows(model.G2, ys), tol), scalar


def pure_decompose(model: ModelSpace, pair: BiharmonicPair,
                   grid) -> tuple[np.ndarray, np.ndarray]:
    """Split u = u0 + u1 with u0 = V(v); u1 must come out (near-)nonnegative.

    Returns (u0, u1) sampled on ``grid``.  A grid point where u1 drops below
    -IDENTITY_TOL refutes the pair's superharmonicity claim and raises
    :class:`ClassificationError`; so does a divergent V(v) under finite u.
    V(v) is taken at the whole grid in one call, so an exception it raises
    at any grid point comes before that refusal.
    """
    grid = [float(g) for g in grid]
    u0 = np.empty(len(grid))
    u1 = np.empty(len(grid))
    vals = _at_points(model, lambda p: coupling_apply(model, pair.v, p),
                      grid)
    for i, (x, val) in enumerate(zip(grid, vals)):
        ux = float(pair.u(x))
        if not val.is_finite:
            raise ClassificationError(
                f"V(v) diverges at {x:g} while u({x:g}) = {ux:g} is finite; "
                "the pair admits no pure part")
        u0[i] = val.value
        u1[i] = ux - u0[i]
    if np.min(u1) < -IDENTITY_TOL:
        i = int(np.argmin(u1))
        raise ClassificationError(
            f"u - V(v) = {u1[i]:.3e} < -{IDENTITY_TOL:g} at x = {grid[i]:g}: "
            "the pair is not superharmonic")
    return u0, u1


@dataclass(frozen=True)
class ClassifyReport:
    """Outcome of sampling a pair against the defining mean-value inequalities."""
    flags: frozenset[str]
    probe_report: "riquier.HyperharmonicReport"
    finite_on_grid: bool
    pure_residual: float | None    # max |u - V(v)| when that was computable


def classify_pair(model: ModelSpace, pair: BiharmonicPair, grid,
                  subintervals) -> ClassifyReport:
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
    report = riquier.verify_hyperharmonic(model, pair, probes)

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
        if (report.max_abs_margin <= IDENTITY_TOL
                and report.max_coupling <= IDENTITY_TOL):
            flags.add("harmonic")
        elif finite:
            flags.add("superharmonic")
            try:
                _, u1 = pure_decompose(model, pair, grid)
            except ClassificationError:
                pass
            else:
                pure_residual = float(np.max(np.abs(u1)))
                if pure_residual <= IDENTITY_TOL:
                    flags.add("pure")
    return ClassifyReport(frozenset(flags), report, finite, pure_residual)
