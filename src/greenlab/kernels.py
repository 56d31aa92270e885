"""Core types: domains, Green kernels, reference measures, model spaces.

A model space bundles the two Green kernels G1, G2 of a coupled pair of
second-order operators together with the reference measure that couples them
and the harmonic bases of both operators.  Everything is immutable;
operations live in :mod:`greenlab.coupling`, :mod:`greenlab.riquier` and the
per-model modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, PreconditionError
from .quadrature import StencilSpec
from .values import DivergenceCertificate, ExtendedValue


# ---------------------------------------------------------------------------
# Domains.

@dataclass(frozen=True)
class Interval1D:
    lo: float
    hi: float
    include_lo: bool = False

    def contains(self, x: float) -> bool:
        if not math.isfinite(x):
            return False
        if x == self.lo:
            return self.include_lo
        return self.lo < x < self.hi

    def require(self, x: float) -> float:
        if not self.contains(x):
            lo_b = "[" if self.include_lo else "("
            raise DomainError(f"{x!r} outside domain {lo_b}{self.lo}, {self.hi})")
        return float(x)

    def interior_grid(self, n: int) -> np.ndarray:
        pad = 0.05 * (self.hi - self.lo)
        return np.linspace(self.lo + pad, self.hi - pad, n)


@dataclass(frozen=True)
class RadialDomain:
    """R^n for n >= 5; points are coordinate vectors."""
    dim: int

    def require(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0:
            # a scalar is read as an offset along the first axis, like
            # everywhere else in the radial API
            arr = np.zeros(self.dim)
            arr[0] = float(x)
        if arr.shape != (self.dim,):
            raise DomainError(f"expected a point of R^{self.dim}, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("point has non-finite coordinates")
        return arr


# ---------------------------------------------------------------------------
# Function wrappers.

class Fn:
    """A callable with declared smoothness breaks and optional support.

    ``breakpoints`` seed quadrature panel splits; ``support`` (an interval)
    lets coupling integrals restrict their range; ``singular_points`` are
    locations where the function may be unbounded, which integrators must
    treat with the dyadic shell probe.  ``vectorized=True`` promises f
    accepts a 1D numpy array and is elementwise: its value at a node does
    not depend on the other nodes in the array, since the quadrature
    evaluates the nodes of many panels in one call.
    """

    def __init__(self, f: Callable, breakpoints: Sequence[float] = (),
                 support: tuple[float, float] | None = None,
                 vectorized: bool = False, name: str = "",
                 singular_points: Sequence[float] = ()):
        self._f = f
        self.breakpoints = tuple(float(b) for b in breakpoints)
        self.support = support
        self.vectorized = vectorized
        self.singular_points = tuple(float(s) for s in singular_points)
        self.name = name or getattr(f, "__name__", "fn")

    def __call__(self, x):
        return self._f(x)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"Fn({self.name})"


def constant(c: float) -> Fn:
    c = float(c)
    return Fn(lambda x: c * np.ones_like(np.asarray(x, dtype=float)),
              vectorized=True, name=f"const:{c:g}")


def bump(center: float, halfwidth: float) -> Fn:
    """Continuous tent bump: 1 at center, 0 outside [center±halfwidth]."""
    c, w = float(center), float(halfwidth)
    if w <= 0.0:
        raise PreconditionError("bump halfwidth must be positive")

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.maximum(0.0, 1.0 - np.abs(x - c) / w)

    return Fn(f, breakpoints=(c - w, c, c + w), support=(c - w, c + w),
              vectorized=True, name=f"bump:{c:g}:{w:g}")


class GridFunction:
    """Piecewise-linear interpolant of samples on a fixed grid.

    Operations that must resolve behaviour at a singular point reject grid
    functions: below the grid spacing the interpolant carries no information.
    """

    def __init__(self, xs: Sequence[float], values: Sequence[float]):
        self.xs = np.asarray(xs, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.xs.ndim != 1 or self.xs.shape != self.values.shape:
            raise PreconditionError("grid and values must be 1D and equal length")
        if not np.all(np.diff(self.xs) > 0):
            raise PreconditionError("grid must be strictly increasing")
        self.breakpoints = tuple(float(x) for x in self.xs)
        self.support = (float(self.xs[0]), float(self.xs[-1]))
        self.vectorized = True

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.values)


def is_grid_function(f) -> bool:
    return isinstance(f, GridFunction)


# ---------------------------------------------------------------------------
# Kernels and measures.

@dataclass(frozen=True)
class EndpointSingularity:
    point: float
    side: str       # side from which the kernel blows up ("right": y -> point+)
    exponent: float


@dataclass(frozen=True)
class GreenKernel:
    """A symmetric positive kernel with declared singularity structure.

    ``raw(x, y)`` is the closed form; it may return +inf on the singular
    locus and must accept numpy arrays in either argument.
    ``diagonal_exponent`` is the blow-up power on the diagonal (None when the
    kernel is merely kinked there), ``endpoint_singularities`` lists boundary
    points where slices can blow up when both arguments approach them.
    """
    name: str
    domain: object
    raw: Callable
    diagonal_exponent: float | None = None
    kink_on_diagonal: bool = True
    endpoint_singularities: tuple[EndpointSingularity, ...] = ()

    def slice_declarations(self, points, first: bool) -> tuple[list, list]:
        """Breakpoints and live singular points of the slices at ``points``.

        The slice in the first argument at y is x -> K(x, y), the one in the
        second at x is y -> K(x, y).  Its breakpoints are its point, where
        the kernel kinks on the diagonal, and every endpoint singularity;
        such an endpoint is a live singular point of the slice where the
        kernel is non-finite at it.  Returns one tuple of each per point;
        one kernel call per endpoint serves all the points, and only the
        points where it is non-finite get a live singular point.
        """
        pts = np.asarray(points, dtype=float)
        ends = tuple(float(e.point) for e in self.endpoint_singularities)
        sings = [()] * pts.size
        for e in ends:
            finite = np.isfinite(self.raw(e, pts) if first
                                 else self.raw(pts, e)).tolist()
            if not all(finite):
                for i, fin in enumerate(finite):
                    if not fin:
                        sings[i] = (*sings[i], e)
        bks = [(p, *ends) for p in pts.tolist()] if self.kink_on_diagonal \
            else [ends] * pts.size
        return bks, sings

    def slice_in_first(self, y: float) -> Fn:
        """x -> K(x, y) with its breakpoints and live singularities declared."""
        (bks,), (sings,) = self.slice_declarations([y], first=True)
        return Fn(lambda x: self.raw(x, y), breakpoints=bks, vectorized=True,
                  name=f"{self.name}(.,{y:g})", singular_points=sings)


def _approach_trace(K: GreenKernel, x, y):
    """Sample K near (x, y) for a point-value certificate.

    The samples are K(x, y + d e_1) for d = 2^-2, 2^-6, ..., 2^-18.  Each
    is recorded at its separation |y + d e_1 - x| from x, the distance the
    kernel sees.  On the diagonal that is d, up to the rounding of y + d e_1.
    """
    step = 1.0 if np.ndim(y) == 0 else np.eye(np.size(y))[0]
    trace = []
    for k in range(2, 22, 4):
        z = y + 2.0 ** (-k) * step
        try:
            val = float(K.raw(x, z))
        except Exception:
            continue
        if math.isfinite(val):
            trace.append((float(np.linalg.norm(np.subtract(z, x))), val))
    return tuple(trace)


def kernel_eval(K: GreenKernel, x, y) -> ExtendedValue:
    """Evaluate a Green kernel, packaging singular hits as certified +inf."""
    x = K.domain.require(x)
    y = K.domain.require(y)
    val = float(K.raw(x, y))
    if math.isfinite(val):
        if val < 0.0:
            raise PreconditionError(
                f"kernel {K.name} returned a negative value at ({x!r}, {y!r})")
        return ExtendedValue.finite(val)
    for e in K.endpoint_singularities:
        if x == e.point and y == e.point:
            cert = DivergenceCertificate(e.point, e.side, e.exponent,
                                         _approach_trace(K, x, y))
            return ExtendedValue.infinite(cert)
    if K.diagonal_exponent is not None:
        # A power-law pole is non-finite only where |x - y|^p overflows, on
        # the diagonal or near enough to it.  A radial certificate locates
        # the separation, a 1D one the point.
        loc = 0.0 if np.ndim(x) else x
        cert = DivergenceCertificate(loc, "diagonal", K.diagonal_exponent,
                                     _approach_trace(K, x, y))
        return ExtendedValue.infinite(cert)
    raise PreconditionError(
        f"kernel {K.name} is non-finite at ({x!r}, {y!r}), which is not on its "
        "declared singular locus")


def times(a, b) -> np.ndarray:
    """a * b, both read as float arrays: the one elementwise product behind
    the operators' integrands (kernel slice times data, then the density)."""
    return np.asarray(a, dtype=float) * np.asarray(b, dtype=float)


@dataclass(frozen=True)
class ReferenceMeasure:
    """Absolutely continuous coupling measure: density w.r.t. Lebesgue."""
    name: str
    density: Callable

    def weigh(self, values, y) -> np.ndarray:
        """values at the nodes y, times the density there."""
        return times(values, self.density(y))

    def weighted(self, f: Callable) -> Callable:
        def g(y):
            return self.weigh(f(y), y)

        g.vectorized = True
        return g


# ---------------------------------------------------------------------------
# Model spaces and pairs.

@dataclass(frozen=True)
class ModelSpace:
    """A concrete coupled-kernel model.

    basis1/basis2 span the local solution spaces of the two operators;
    ``kink_density`` w is the weight making int K_omega(x,z) v(z) w(z) dz the
    particular solution of the first operator with right-hand side -v (it is
    forced by the delta normalization of G1's diagonal kink).
    """
    id: str
    domain: object
    G1: GreenKernel
    G2: GreenKernel
    mu: ReferenceMeasure
    basis1: tuple[Callable, Callable] | None = None
    basis2: tuple[Callable, Callable] | None = None
    L1_stencil: StencilSpec | None = None
    L2_stencil: StencilSpec | None = None
    kink_density: Callable | None = None
    dim: int | None = None
    subdomain_closure_ok: bool = False

    @property
    def is_radial(self) -> bool:
        return self.dim is not None


@dataclass(frozen=True)
class BiharmonicPair:
    """A candidate pair (u, v) for the coupled system.

    ``flags`` may only be populated by classify_pair or by model constructors
    whose provenance string records the closed-form argument.
    """
    u: Callable
    v: Callable
    flags: frozenset[str] = field(default_factory=frozenset)
    provenance: str = ""

    def with_flags(self, flags, provenance: str) -> "BiharmonicPair":
        return BiharmonicPair(self.u, self.v, frozenset(flags), provenance)
