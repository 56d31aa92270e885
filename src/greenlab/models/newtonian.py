"""The radial model on R^N, N >= 5: kernel c_N |x-y|^(2-N), Lebesgue measure.

Dimension five is where the composed kernel H(x,y) = int G(x,z)G(z,y) dz
first becomes finite off the diagonal; below that the defining integral has
a fat tail.  The constructor therefore refuses N < 5, and
``composition_tail_report`` exists to document the boundary case N = 4 by
running the same tail probe that would reject it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..errors import ConditioningError, ModelDomainError, PreconditionError
from ..coupling import coupling_apply
from ..kernels import (Fn, GreenKernel, ModelSpace, RadialDomain,
                       ReferenceMeasure, constant)
from ..quadrature import (integrate, probe_divergence, probe_tail,
                          sphere_surface_area)
from ..values import DivergenceCertificate, ExtendedValue, ProbeReport

# Distances below this make the composed-kernel quadrature ill-conditioned
# (the inner angular peak narrows past what the panel budget resolves), so
# such requests are refused outright rather than answered unreliably.
NEAR_DIAGONAL_LIMIT = 1e-3


def newton_constant(n: int) -> float:
    """The constant making -Delta of c_n |.|^(2-n) the unit point mass.

    Equivalently: the Gauss flux of the kernel through any sphere around its
    pole is exactly one; ``gauss_flux`` re-measures this by quadrature.
    """
    if n < 3:
        raise ModelDomainError(f"the power-law kernel needs dimension >= 3, got {n}")
    return math.gamma(n / 2.0) / ((n - 2) * 2.0 * math.pi ** (n / 2.0))


def _require_dim(n: int) -> int:
    n = int(n)
    if n < 5:
        raise ModelDomainError(
            f"the radial model needs dimension >= 5 (got {n}): below that the "
            "composed kernel's defining integral diverges at the tail")
    return n


@lru_cache(maxsize=None)
def newtonian_model(n: int) -> ModelSpace:
    n = _require_dim(n)
    c = newton_constant(n)

    def raw(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dist = np.sqrt(np.sum((y - x) ** 2, axis=-1))
        with np.errstate(divide="ignore", over="ignore"):
            return c * dist ** (2.0 - n)

    kernel = GreenKernel(f"newton{n}", RadialDomain(n), raw,
                         diagonal_exponent=2.0 - n)
    mu = ReferenceMeasure(
        "lebesgue", lambda r: np.ones_like(np.asarray(r, dtype=float)))
    return ModelSpace(id=f"newtonian{n}", domain=RadialDomain(n),
                      G1=kernel, G2=kernel, mu=mu, dim=n)


def gauss_flux(n: int, r: float) -> float:
    """Outward flux of -grad G through a sphere of radius r around the pole.

    The radial derivative is taken by fourth-order finite differences of the
    kernel at points on the sphere, and the surface integral runs over the
    polar angle with the axially reduced area weight, so both the power law
    and the normalization constant are genuinely measured.  The integrand,
    -dG/dr sin^(n-2)(theta), is nonnegative and integrated at tol 1e-10.
    """
    n = _require_dim(n)
    r = float(r)
    if not 0.0 < r < math.inf:
        raise PreconditionError(
            f"flux radius must be positive and finite, not {r}")
    model = newtonian_model(n)
    raw = model.G1.raw
    pole = np.zeros(n)
    h = 1e-3 * r

    def dgdr(theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        units = np.zeros((theta.size, n))
        units[:, 0] = np.cos(theta)
        units[:, 1] = np.sin(theta)
        samples = []
        for rr in (r - 2 * h, r - h, r + h, r + 2 * h):
            samples.append(np.asarray(raw(pole, rr * units), dtype=float))
        gm2, gm1, gp1, gp2 = samples
        return (8.0 * (gp1 - gm1) - (gp2 - gm2)) / (12.0 * h)

    def integrand(theta):
        theta = np.asarray(theta, dtype=float)
        return -dgdr(theta) * np.sin(theta) ** (n - 2)

    integrand.vectorized = True
    flux = integrate(integrand, (0.0, math.pi), tol=1e-10).value
    return sphere_surface_area(n - 1) * r ** (n - 1) * float(flux)


def constant_coupling_divergence(n: int) -> DivergenceCertificate:
    """Certify that V applied to the constant 1 has no finite value anywhere.

    The radial reduction of int G(x,z) dz has integrand proportional to r
    after the volume weight, so the mass escapes at the tail with exponent
    +1, the same at every base point x by translation invariance.  The
    returned certificate is the reason no everywhere-positive coupled pair
    exists on this model.
    """
    val = coupling_apply(newtonian_model(n), constant(1.0), 0.0)
    if val.is_finite:     # pragma: no cover - mathematically impossible
        raise ModelDomainError("constant coupling unexpectedly converged")
    return val.certificate


def truncated_constant_coupling(n: int, upper: float) -> ExtendedValue:
    """The same integral cut at radius ``upper``: finite, value sigma c_n R^2/2."""
    model = newtonian_model(n)
    upper = float(upper)
    if upper <= 0.0:
        raise PreconditionError("truncation radius must be positive")
    one = Fn(constant(1.0), support=(0.0, upper), vectorized=True)
    return coupling_apply(model, one, 0.0)


def _composition_outer(n: int, d, inner_tol: float):
    """(r, s) -> prefactor * s * int_0^pi |sep|^(2-n) sin^(n-2) dtheta at
    separation d[r]: a row integrand, elementwise in r and s, with one row
    per separation of ``d`` (a number is one row).

    The angular integrals at all the (row, radius) pairs of one call are
    the rows of one row-form :func:`integrate` call.  Each row's integrand
    is divided by Newton's shell magnitude max(s, d)^(2-n), the mean of
    |sep|^(2-n) over the sphere of radius s, so every row integrates to
    about int_0^pi sin^(n-2) and ``inner_tol`` is relative.  The squared
    separation is written (s-d)^2 + 4 s d sin^2(theta/2), which is exact and
    loses no precision when s is close to d.

    Near s = d the normalized integrand dips to 0 on theta < w, with
    w = |s-d| / sqrt(s d).  Once w is small the dip falls between the nodes
    of a panel on [0, pi], whose K15 and G7 then agree on a wrong value.  So
    each row is integrated in t, with theta = w sinh(t/w): the dip gets at
    least a fortieth of the t-interval, and for w >> pi the map is about the
    identity.  The map is exact for any w; w is kept in [1e-16, 1e3], and a
    dip narrower than 1e-16 moves the integral by a few ulps at most.

    The integrand's ``rho`` holds one value per row: the largest relative
    error bound of the angular integrals evaluated so far at that row's
    separation.  Every value row r has returned is off by at most rho[r] of
    itself, and an unconverged angular integral raises it.  One row's inner
    errors so never reach another row's bound.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    pref = newton_constant(n) ** 2 * sphere_surface_area(n - 1)
    half_power = 0.5 * (2.0 - n)

    def outer(r, s):
        s = np.asarray(s, dtype=float)
        # one separation for an int row, and for every node of a one-row
        # integrand, however its row ids come; else one per node
        if len(d) == 1:
            r = 0
        scalar = np.ndim(r) == 0
        dr = d[r]
        scale2 = np.maximum(s, dr) ** 2
        with np.errstate(divide="ignore"):
            w = np.clip(np.abs(s - dr) / np.sqrt(s * dr), 1e-16, 1e3)

        def gth(i, t):
            si, wi, di = s[i], w[i], dr if scalar else dr[i]
            q = t / wi
            theta = wi * np.sinh(q)
            sep2 = (si - di) ** 2 + 4.0 * si * di * np.sin(0.5 * theta) ** 2
            return ((sep2 / scale2[i]) ** half_power * np.sin(theta) ** (n - 2)
                    * np.cosh(q))

        ends = w * np.arcsinh(math.pi / w)
        inner = integrate(gth, rows=(len(ends), [0.0, ends], {}),
                          tol=inner_tol, max_subdivisions=800)
        vals = inner.value
        ratio = inner.bound / vals
        # np.maximum.at only for nodes of several rows: in a one-row call
        # it cost about 2% of the time
        if scalar:
            outer.rho[r] = max(outer.rho[r], float(ratio.max()))
        else:
            np.maximum.at(outer.rho, r, ratio)
        return pref * s * scale2 ** half_power * vals

    outer.rho = np.zeros(len(d))
    return outer


def _row(outer, r: int):
    """Row r of a row integrand, as the node integrand a probe takes."""
    def f(s):
        return outer(r, s)

    f.vectorized = True
    return f


def _radial_points(dom: RadialDomain, p) -> np.ndarray:
    """The points p as a (k, n) array: a scalar or a 1-D array is one point."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim < 2:
        return dom.require(p)[None]
    if arr.ndim > 2:
        raise PreconditionError(
            f"radial points come as a scalar, a vector or a (k, {dom.dim}) "
            f"array, not shape {arr.shape}")
    return np.array([dom.require(q) for q in arr]).reshape(-1, dom.dim)


def riesz_compose(n: int, x, y, tol: float = 1e-7):
    """H(x, y) = int G(x,z) G(z,y) dz by the axially reduced double integral.

    Off the diagonal this is finite for every n >= 5 and scales as
    |x-y|^(4-n): an integral over [0, inf) in the radius s, with a kink at
    s = d and its tail walked from 2*max(d, 1).  The angular integral at
    each node radius is taken to the relative tolerance
    max(1e-13, 1e-3*tol), and its error is carried: the outer integrand is
    positive and every outer weight is positive, so a relative inner error
    rho moves H by at most rho*H, which is added to the bound.  On the
    diagonal the radial integrand behaves like s^(3-n) at the origin, which
    is certified divergent.  Separations below NEAR_DIAGONAL_LIMIT are
    refused as ill-conditioned.

    ``x`` and ``y`` are each one point, a scalar (an offset along the first
    axis) or a vector of R^n, or k points as a (k, n) array; the two
    broadcast.  A call with an array returns a tuple of extended values,
    one per pair, and each has the bits of its one-pair call: every
    separation off the diagonal is a row of one row-form :func:`integrate`
    call, whose rows each carry their own inner error rho.  Every point is
    checked, and a near-diagonal separation refused in pair order, before
    any evaluation.
    """
    n = _require_dim(n)
    dom = RadialDomain(n)
    xs, ys = _radial_points(dom, x), _radial_points(dom, y)
    scalar = np.ndim(x) < 2 and np.ndim(y) < 2
    try:
        ds = [float(np.linalg.norm(v)) for v in xs - ys]
    except ValueError as exc:
        raise PreconditionError(f"the points do not broadcast: {exc}") from exc
    for d in ds:
        if 0.0 < d < NEAR_DIAGONAL_LIMIT:
            raise ConditioningError(
                f"separation {d:.3e} is below {NEAR_DIAGONAL_LIMIT:g}; the "
                "angular peak of the composition integrand cannot be "
                "resolved reliably")
    inner_tol = max(1e-13, 1e-3 * tol)
    values = [None] * len(ds)
    if 0.0 in ds:
        rep = probe_divergence(
            _row(_composition_outer(n, 0.0, inner_tol), 0), 0.0,
            side="right", tol=tol)
        if not rep.divergent:   # pragma: no cover - mathematically impossible
            raise ModelDomainError("diagonal composition unexpectedly converged")
        cert = DivergenceCertificate(0.0, "diagonal", rep.estimated_exponent,
                                     rep.trace)
        values = [ExtendedValue.infinite(cert) if d == 0.0 else None
                  for d in ds]
    far = [i for i, d in enumerate(ds) if d > 0.0]
    if far:
        d = np.array([ds[i] for i in far])
        outer = _composition_outer(n, d, inner_tol)
        rows = integrate(outer, rows=(len(far), [0.0, d, 2.0 * np.maximum(
            d, 1.0), math.inf], {}), tol=tol)
        for i, h, rho in zip(far, rows, outer.rho.tolist()):
            values[i] = ExtendedValue.finite(
                h.value.value, h.value.error_bound + rho * h.value.value)
    return values[0] if scalar else tuple(values)


def composition_tail_report(n: int) -> ProbeReport:
    """Tail probe of the composition integrand, admitting n = 4.

    The model constructor rejects n < 5; this utility shows why, by running
    the identical tail classification on the defining integrand at
    separation 1, from radius 2, at tol 1e-9: at n = 4 the
    radial integrand decays like 1/s, exponent -1, certified divergent, while
    n >= 5 extrapolates to a finite remainder.
    """
    n = int(n)
    if n < 4:
        raise ModelDomainError(
            f"the tail documentation covers the boundary case n >= 4, got {n}")
    outer = _composition_outer(n, 1.0, inner_tol=1e-11)
    return probe_tail(_row(outer, 0), start=2.0, tol=1e-9)
