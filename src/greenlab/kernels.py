"""Core types: domains, Green kernels, reference measures, model spaces.

A model space bundles the two Green kernels G1, G2 of a coupled pair of
second-order operators together with the reference measure that couples them
and the harmonic bases of both operators.  Everything is immutable;
operations live in :mod:`greenlab.coupling`, :mod:`greenlab.riquier` and the
per-model modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ConditioningError, DomainError, PreconditionError
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
    lets coupling integrals and the duality pairing restrict their range.
    An operator reads a function's kinks only from ``breakpoints`` and its
    range only from ``support``: a kink left undeclared is found by
    bisection, at the cost of panels and of a larger quadrature error.  A
    function built from others must declare the union of their
    breakpoints and the hull of their supports.  ``singular_points`` are
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
    if not math.isfinite(c):
        raise PreconditionError(f"bump center must be finite, not {c}")
    if not 0.0 < w < math.inf:
        raise PreconditionError(
            f"bump halfwidth must be positive and finite, not {w}")

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

    ``raw(x, y)`` is the closed form and must accept numpy arrays in either
    argument, and equal ``raw(y, x)`` bit for bit: the operators slice a kernel
    only in its second argument, z -> K(p, z), and read a slice in the first
    argument from it.  On the singular locus it may return +inf and may warn (a
    numpy division by zero), and beside it overflow; no quadrature node of a
    slice meets either.  Points of a caller's choosing go through
    :meth:`evaluate`, and are refused off the locus by :meth:`overflow_error`.
    ``diagonal_exponent`` is the blow-up power on the diagonal (None when the
    kernel is merely kinked there), ``endpoint_singularities`` lists boundary
    points where slices can blow up when both arguments approach them.
    """
    name: str
    domain: object
    raw: Callable
    diagonal_exponent: float | None = None
    endpoint_singularities: tuple[EndpointSingularity, ...] = ()

    def evaluate(self, x, y):
        """raw(x, y), +inf without a warning where it divides by 0 or overflows."""
        with np.errstate(divide="ignore", over="ignore"):
            return self.raw(x, y)

    def overflow_error(self, x, y) -> ConditioningError:
        """The refusal of (x, y), non-finite off the declared singular locus."""
        return ConditioningError(
            f"kernel {self.name} overflows at ({x!r}, {y!r}), off its declared "
            "singular locus: too close to a singularity to evaluate reliably")

    def slice_declarations(self, points) -> tuple[list, dict]:
        """Breakpoints and live singular points of the slices at ``points``.

        The slice at p is z -> K(p, z).  Its breakpoints are its point,
        where the kernel kinks on the diagonal, and every endpoint
        singularity; such an endpoint is a live singular point of the slice
        at that endpoint itself, where the kernel is non-finite at it.  A
        slice at another point that is non-finite at an endpoint overflows
        there, so close to it that no integral of the slice can be trusted:
        that point is refused with :meth:`overflow_error`.  Returns the
        breakpoints as columns -- the points array, then one float per
        endpoint -- and a dict from the index of each point with a live
        singular point to them; one kernel call per endpoint serves all the
        points.
        """
        pts = np.asarray(points, dtype=float)
        ends = [float(e.point) for e in self.endpoint_singularities]
        sings: dict[int, tuple] = {}
        for e in ends:
            finite = np.isfinite(self.evaluate(pts, e)).tolist()
            if not all(finite):
                for i, (p, fin) in enumerate(zip(pts.tolist(), finite)):
                    if fin:
                        continue
                    if p != e:
                        raise self.overflow_error(p, e)
                    sings[i] = (*sings.get(i, ()), e)
        return [pts, *ends], sings

    def slice_in_first(self, y: float) -> Fn:
        """x -> K(x, y), read as the slice z -> K(y, z) of the symmetric
        kernel, with its breakpoints and live singularities declared."""
        cols, sings = self.slice_declarations([y])
        bks = [c if isinstance(c, float) else c[0] for c in cols]
        return Fn(lambda z: self.raw(y, z), breakpoints=bks,
                  vectorized=True, name=f"{self.name}(.,{y:g})",
                  singular_points=sings.get(0, ()))


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
        val = float(K.evaluate(x, z))
        if math.isfinite(val):
            trace.append((float(np.linalg.norm(np.subtract(z, x))), val))
    return tuple(trace)


def kernel_eval(K: GreenKernel, x, y) -> ExtendedValue:
    """Evaluate a Green kernel, packaging singular hits as certified +inf."""
    x = K.domain.require(x)
    y = K.domain.require(y)
    val = float(K.evaluate(x, y))
    if math.isfinite(val):
        if val < 0.0:
            raise PreconditionError(
                f"kernel {K.name} returned a negative value at ({x!r}, {y!r})")
        return ExtendedValue.finite(val)
    # The declared locus: both arguments at an endpoint singularity, or where
    # a power-law pole |x - y|^p overflows, on the diagonal or beside it.  A
    # radial certificate locates the separation, a 1D one the point.
    hit = [(e.point, e.side, e.exponent) for e in K.endpoint_singularities
           if x == e.point and y == e.point]
    if K.diagonal_exponent is not None:
        hit.append((0.0 if np.ndim(x) else x, "diagonal", K.diagonal_exponent))
    if not hit:
        raise K.overflow_error(x, y)
    return ExtendedValue.infinite(
        DivergenceCertificate(*hit[0], _approach_trace(K, x, y)))


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
class StencilSpec:
    """A second-order 1D differential operator in discretizable form.

    form="product_second":  L u = (m(x) u(x))''          (weight m)
    form="flux":            L u = (w(x) u'(x))' / w(x)   (weight w)
    A ``weight`` of None means the constant 1, i.e. the plain u''.
    """
    name: str
    form: str = "product_second"
    weight: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.form not in ("product_second", "flux"):
            raise ValueError(f"unknown stencil form {self.form!r}")


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

    @cached_property
    def adjoint(self) -> "ModelSpace":
        """The adjoint space: its composed kernel is H*(x, y) = H(y, x).

        It has the kernels (G2, G1), the same measure, and the two bases
        and stencils swapped, so V* is V on it.  A model whose two kernels,
        bases and stencils are equal (the clamped plate, every Newtonian
        model) is its own adjoint.  Otherwise the adjoint has no kink
        density, which the swap does not determine, and so no Riquier
        problem.  The adjoint is built once per model object and held on
        it; a ``dataclasses.replace`` copy builds its own.
        """
        if (self.G1 == self.G2 and self.basis1 == self.basis2
                and self.L1_stencil == self.L2_stencil):
            return self
        return replace(self, id=self.id + "*", G1=self.G2, G2=self.G1,
                       basis1=self.basis2, basis2=self.basis1,
                       L1_stencil=self.L2_stencil,
                       L2_stencil=self.L1_stencil, kink_density=None)


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
