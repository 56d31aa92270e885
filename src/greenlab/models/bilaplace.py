"""The symmetric-equal model: both operators are d^2/dx^2 on (0, 1).

Both kernels equal G(x,y) = min(x,y)(1 - max(x,y)) and the coupling measure
is Lebesgue, so everything the library can only refute on the interval model
holds here: the composed kernel is symmetric and continuous, the adjoint
coupling of compactly supported data is finite and continuous, and the
transposed boundary triple exists.  This module is the positive fixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import PreconditionError
from ..coupling import compose_green
from ..kernels import (Fn, GreenKernel, Interval1D, ModelSpace,
                       ReferenceMeasure, StencilSpec, constant, BiharmonicPair)
from ..riquier import fd_residual
from ..values import FD_TOL, QUAD_TOL


def _g_raw(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.minimum(x, y) * (1.0 - np.maximum(x, y))


def _one(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _ident(x):
    return np.asarray(x, dtype=float) + 0.0


@lru_cache(maxsize=1)
def bilaplace_model() -> ModelSpace:
    dom = Interval1D(0.0, 1.0, include_lo=False)
    g = GreenKernel("bilaplace-G", dom, _g_raw)
    mu = ReferenceMeasure("dy", lambda y: np.ones_like(np.asarray(y, dtype=float)))
    second = StencilSpec("u''", "product_second", weight=None)
    return ModelSpace(
        id="bilaplace1d", domain=dom, G1=g, G2=g, mu=mu,
        basis1=(_one, _ident), basis2=(_one, _ident),
        L1_stencil=second, L2_stencil=second,
        kink_density=lambda z: np.ones_like(np.asarray(z, dtype=float)),
        subdomain_closure_ok=True)


def h_symmetry_table() -> tuple[np.ndarray, np.ndarray]:
    """H by quadrature in both orders on the 20-point grid of [0.05, 0.95].

    Returns (grid, table) with table[i, j] = H(grid[i], grid[j]), one
    quadrature per ordered pair of grid points, all in one call.
    """
    grid = np.linspace(0.05, 0.95, 20)
    xs, ys = np.meshgrid(grid, grid, indexing="ij")
    values = compose_green(bilaplace_model(), xs.ravel(), ys.ravel(),
                           tol=QUAD_TOL)
    table = np.array([float(v) for v in values]).reshape(xs.shape)
    return grid, table


def h_closed_form(x: float, y: float) -> float:
    """H(x, y) assembled from the three-range antiderivatives; the reference.

    For x <= y the integrand is z^2(1-x)(1-y) on [0,x], x(1-y) z(1-z) on
    [x,y] and x y (1-z)^2 on [y,1]; the pieces below are their exact
    integrals, and the x > y case follows by symmetry of the integrand.
    """
    x, y = float(x), float(y)
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise PreconditionError("the closed form covers the closed unit square")
    if x > y:
        x, y = y, x
    p1 = (1.0 - x) * (1.0 - y) * x ** 3 / 3.0
    p2 = x * (1.0 - y) * ((y ** 2 - x ** 2) / 2.0 - (y ** 3 - x ** 3) / 3.0)
    p3 = x * y * (1.0 - y) ** 3 / 3.0
    return p1 + p2 + p3


@dataclass(frozen=True)
class NavierReport:
    """Residuals reading H(., y) as the classical two-operator solution.

    ``third_jump`` is the jump of H''' across y, oriented right minus left;
    since H'' = -G(., y) and the kernel slope drops by 1 across its kink,
    the jump comes out +1.
    """
    y: float
    max_l1_residual: float
    boundary_values: tuple[float, float]
    third_jump: float

    @property
    def margin(self) -> float:
        """The least headroom of the residual (against FD_TOL), the third
        jump (against 1e-2) and the boundary values (against 1e-6)."""
        return min(FD_TOL - self.max_l1_residual,
                   1e-2 - abs(self.third_jump - 1.0),
                   1e-6 - max(abs(v) for v in self.boundary_values))

    def passed(self) -> bool:
        return self.margin >= 0.0


def navier_check(y: float) -> NavierReport:
    """Check H(., y) against u'' = -G(., y) with zero boundary values.

    H is taken at tol 1e-10.  The second-derivative residual runs at the
    probes 0.1, ..., 0.9 that lie at least 0.05 from y, at a coarse step
    h = 1e-2 (node noise scales like tol / h^2), the boundary is sampled at
    1e-6 off the ends, and the third-derivative jump across y is taken with
    one-sided four-point differences, which are exact on the
    piecewise-cubic H so the jump estimate is noise-limited only.  H is
    taken in two calls: one on the stencil windows of every probe, one on
    the two boundary and eight jump samples.
    """
    model = bilaplace_model()
    y = float(y)
    if not 0.0 < y < 1.0:
        raise PreconditionError("the kink location must be interior")
    probes = [p / 10.0 for p in range(1, 10) if abs(p / 10.0 - y) >= 0.05]

    def hq(xs):
        return [float(v) for v in compose_green(model, xs, y, tol=1e-10)]

    gslice = model.G2.slice_in_first(y)
    max_res = 0.0
    residuals = fd_residual(model.L1_stencil, Fn(hq, vectorized=True),
                            np.array(probes), h=1e-2)
    for x, res in zip(probes, residuals.tolist()):
        max_res = max(max_res, abs(res + float(gslice(x))))

    eps = 1e-6
    step = min(2e-2, y / 5.0, (1.0 - y) / 5.0)
    samples = hq(np.array([eps, 1.0 - eps,
                           *(y - k * step for k in (4, 3, 2, 1)),
                           *(y + k * step for k in (1, 2, 3, 4))]))
    boundary, left, right = tuple(samples[:2]), samples[2:6], samples[6:]
    third = lambda f0, f1, f2, f3: (f3 - 3.0 * f2 + 3.0 * f1 - f0) / step ** 3
    jump = third(*right) - third(*left)
    return NavierReport(y, max_res, boundary, jump)


def global_pure_pair() -> BiharmonicPair:
    """(x(1-x)/2, 1): the pure pair of the constant 1 on this model."""
    return BiharmonicPair(
        Fn(lambda x: 0.5 * np.asarray(x, dtype=float)
           * (1.0 - np.asarray(x, dtype=float)),
           vectorized=True, name="x(1-x)/2"),
        constant(1.0),
        frozenset({"hyperharmonic", "superharmonic", "pure"}),
        provenance="closed form: u'' = -1 with u(0) = u(1) = 0 and V(1) = u")
